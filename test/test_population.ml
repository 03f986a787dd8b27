(* Population traffic model: sampler properties, spawn determinism, and
   the golden digests that pin the flow engine's seeded outcomes. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Sampler properties *)

(* Poisson arrivals: the empirical mean inter-arrival gap converges on
   1/rate. Tolerance is loose (35%) because 400 exponential draws have
   heavy relative spread; the property is about the rate parameter
   actually steering the process, not about tight convergence. *)
let prop_poisson_iat_mean =
  QCheck.Test.make ~name:"poisson iat mean ~ 1/rate" ~count:20
    QCheck.(pair (int_range 1 1000) (float_range 5.0 200.0))
    (fun (seed, rate) ->
      let rng = Netsim.Rng.create seed in
      let n = 400 in
      let sum = ref 0.0 in
      for _ = 1 to n do
        sum :=
          !sum
          +. Netsim.Population.sample_iat rng (Netsim.Population.Poisson rate)
               None ~now:0.0
      done;
      let mean = !sum /. float_of_int n in
      Float.abs (mean -. (1.0 /. rate)) < 0.35 /. rate)

(* Size samplers respect their floors: Pareto never goes below its
   scale xm, and every distribution yields at least one byte. *)
let prop_sizes_floored =
  QCheck.Test.make ~name:"size samples respect distribution floors" ~count:50
    QCheck.(pair (int_range 1 1000) (float_range 100.0 20000.0))
    (fun (seed, xm) ->
      let rng = Netsim.Rng.create seed in
      let ok = ref true in
      for _ = 1 to 200 do
        let p =
          Netsim.Population.sample_size rng
            (Netsim.Population.Pareto { xm; alpha = 1.2 })
        in
        if float_of_int p < xm then ok := false;
        let l =
          Netsim.Population.sample_size rng
            (Netsim.Population.Lognormal_size { mu = 8.0; sigma = 1.5 })
        in
        if l < 1 then ok := false
      done;
      !ok
      && Netsim.Population.sample_size rng (Netsim.Population.Fixed 777) = 777)

(* Diurnal modulation never stalls the process: the gap stays finite
   and positive even at the trough of a full-amplitude swing (the
   implementation floors the modulated rate at 5%). *)
let prop_diurnal_gap_finite =
  QCheck.Test.make ~name:"diurnal gaps stay finite and positive" ~count:50
    QCheck.(pair (int_range 1 1000) (float_range 0.0 50.0))
    (fun (seed, now) ->
      let rng = Netsim.Rng.create seed in
      let gap =
        Netsim.Population.sample_iat rng (Netsim.Population.Poisson 30.0)
          (Some { Netsim.Population.amp = 1.0; period = 10.0 })
          ~now
      in
      Float.is_finite gap && gap > 0.0)

(* ------------------------------------------------------------------ *)
(* Spawn determinism *)

(* One bounded mini population run; returns a fingerprint that is
   sensitive to every arrival instant, transfer size and completion. *)
let population_fingerprint ~predraws () =
  let sim = Netsim.Sim.create () in
  let table = Netsim.Flow_table.create ~capacity:64 ~lite:true ~sim () in
  let rate = Netsim.Units.mbps_to_bps 24.0 in
  let link =
    Netsim.Link.create ~const_rate:rate ~sim
      ~rate_fn:(fun _ -> rate)
      ~grain:0.01
      ~buffer_bytes:(Netsim.Units.kb 150)
      ~loss_p:0.0 ~rng:(Netsim.Rng.create 3)
      ~deliver:(Netsim.Flow_table.on_pkt_delivered table)
      ()
  in
  Netsim.Flow_table.attach table link;
  let rng = Netsim.Rng.create 42 in
  (* Advancing the parent stream must not move the spawned process:
     Population draws from [Rng.split_key] streams keyed on the parent
     seed alone. *)
  for _ = 1 to predraws do
    ignore (Netsim.Rng.float rng)
  done;
  let cfg = Netsim.Population.default ~rate:60.0 () in
  Netsim.Population.spawn ~table ~rng ~cfg ~until:1.5;
  Netsim.Sim.run sim ~until:3.0;
  let n = Netsim.Flow_table.flow_count table in
  let acc = ref [] in
  for h = 0 to n - 1 do
    acc :=
      ( Netsim.Flow_table.start_time table h,
        Netsim.Flow_table.delivered_bytes table h,
        Netsim.Flow_table.completion_time table h )
      :: !acc
  done;
  (n, Netsim.Sim.events sim, !acc)

(* Structural [compare] rather than [=]: unfinished flows fingerprint
   as [nan] completion times, and [nan = nan] is false. *)
let test_spawn_deterministic () =
  let a = population_fingerprint ~predraws:0 () in
  let b = population_fingerprint ~predraws:0 () in
  check_bool "identical runs are bit-identical" true (compare a b = 0)

let test_spawn_insensitive_to_parent_draws () =
  let a = population_fingerprint ~predraws:0 () in
  let b = population_fingerprint ~predraws:13 () in
  check_bool "parent draw position does not move the population" true
    (compare a b = 0)

let test_spawn_produces_flows () =
  let n, events, flows = population_fingerprint ~predraws:0 () in
  check_bool "spawned a plausible count" true (n > 30 && n < 200);
  check_bool "simulation did work" true (events > 1000);
  check_bool "some flow completed" true
    (List.exists (fun (_, _, c) -> not (Float.is_nan c)) flows);
  check_int "fingerprint covers all flows" n (List.length flows)

(* ------------------------------------------------------------------ *)
(* Golden digests *)

(* Seeded scenario outcomes, pinned. The values were captured on the
   closure-based flow engine that preceded Flow_table, which reproduced
   it bit for bit before replacing it: [quad] is the MD5 of the
   outcome's utilization, mean delay, loss rate and throughput printed
   as hex floats; [acked]/[lost] are per-flow packet counts; [events]
   is the simulator's logical event count. A row that moves means the
   engine's event order or arithmetic changed. *)
type golden = {
  name : string;
  run : unit -> Netsim.Network.summary;
  quad : string;
  acked : int list;
  lost : int list;
  events : int;
}

let duration = 4.0
let wired24 () = Harness.Scenario.make_spec (Traces.Rate.constant 24.0)

let uniform ~n_flows factory spec =
  (Harness.Scenario.run_uniform ~seed:5 ~n_flows ~factory ~duration spec)
    .Harness.Scenario.summary

let golden_rows =
  [
    {
      name = "wired-cubic-3";
      run = (fun () -> uniform ~n_flows:3 Harness.Ccas.cubic (wired24 ()));
      quad = "60e2a67c01017485b536c3d495941053";
      acked = [ 2201; 2388; 3275 ];
      lost = [ 67; 59; 67 ];
      events = 50620;
    };
    {
      name = "lte-cubic-2";
      run =
        (fun () ->
          uniform ~n_flows:2 Harness.Ccas.cubic
            (Harness.Scenario.make_spec ~loss_p:0.01
               (Traces.Lte.generate ~seed:11 ~duration Traces.Lte.Walking)));
      quad = "0ecee3c2d666289d4f106caca6dfd537";
      acked = [ 1782; 1526 ];
      lost = [ 17; 18 ];
      events = 21217;
    };
    {
      name = "mixed-staggered";
      run =
        (fun () ->
          Harness.Scenario.run_mixed ~seed:5
            ~flows:
              [
                (Harness.Ccas.cubic, 0.0);
                (Harness.Ccas.bbr, 1.0);
                (Harness.Ccas.vegas, 2.0);
              ]
            ~duration
            (Harness.Scenario.make_spec ~rtt:0.04 (Traces.Rate.constant 24.0)));
      quad = "22a2a841ac7e80939b57947ad7fa58be";
      acked = [ 3186; 4375; 128 ];
      lost = [ 291; 414; 31 ];
      events = 52034;
    };
    {
      name = "codel-cubic-2";
      run =
        (fun () ->
          uniform ~n_flows:2 Harness.Ccas.cubic
            (Harness.Scenario.make_spec ~aqm:`Codel ~buffer_kb:500
               (Traces.Rate.constant 24.0)));
      quad = "00100acb971716138a7c61341288c7e5";
      acked = [ 4179; 3471 ];
      lost = [ 20; 13 ];
      events = 48686;
    };
    {
      name = "reorder-dup3-cubic-2";
      run =
        (fun () ->
          let impair = Result.get_ok (Faults.Spec.of_string "reorder") in
          uniform ~n_flows:2 Harness.Ccas.cubic
            (Harness.Scenario.make_spec ~impair ~dup_thresh:3
               (Traces.Rate.constant 24.0)));
      quad = "61bfddaaf80d7179913969bbdaff94fc";
      acked = [ 3989; 3842 ];
      lost = [ 107; 97 ];
      events = 50977;
    };
    {
      name = "c-libra-1";
      run = (fun () -> uniform ~n_flows:1 Harness.Ccas.c_libra (wired24 ()));
      quad = "a0f279f4fa6020e4c0c9da4dfe6e0318";
      acked = [ 6290 ];
      lost = [ 0 ];
      events = 43497;
    };
  ]

let check_golden (g : golden) () =
  let summary = g.run () in
  let o = Harness.Scenario.outcome ~duration summary in
  let quad =
    Printf.sprintf "%h %h %h %h" o.Harness.Scenario.utilization
      o.Harness.Scenario.mean_delay o.Harness.Scenario.loss_rate
      o.Harness.Scenario.throughput
  in
  let per_flow f =
    List.map (fun r -> f r.Netsim.Network.stats) summary.Netsim.Network.flows
  in
  Alcotest.(check string)
    (g.name ^ ": outcome quad digest (" ^ quad ^ ")")
    g.quad
    (Digest.to_hex (Digest.string quad));
  Alcotest.(check (list int))
    (g.name ^ ": per-flow acked pkts") g.acked
    (per_flow Netsim.Flow_stats.total_acked_pkts);
  Alcotest.(check (list int))
    (g.name ^ ": per-flow lost pkts") g.lost
    (per_flow Netsim.Flow_stats.total_lost_pkts);
  check_int (g.name ^ ": logical event count") g.events
    summary.Netsim.Network.events

(* The lite churn path, pinned like the rows above: a Population run on
   a lite table, long enough that finished flows hand their outstanding
   rings to later arrivals (and elephants grow theirs first). The digest
   covers the flow count, the logical event count and every flow's
   start, delivered bytes and completion instant as hex floats. *)
let lite_churn_digest = "e06f3bd6f5e508e56b05bc49e8a7491b"

let check_lite_churn () =
  let sim = Netsim.Sim.create () in
  let table = Netsim.Flow_table.create ~capacity:16 ~lite:true ~sim () in
  let rate = Netsim.Units.mbps_to_bps 24.0 in
  let link =
    Netsim.Link.create ~const_rate:rate ~sim
      ~rate_fn:(fun _ -> rate)
      ~grain:0.01
      ~buffer_bytes:(Netsim.Units.kb 150)
      ~loss_p:0.0 ~rng:(Netsim.Rng.create 3)
      ~deliver:(Netsim.Flow_table.on_pkt_delivered table)
      ()
  in
  Netsim.Flow_table.attach table link;
  let cfg = Netsim.Population.default ~rate:80.0 () in
  Netsim.Population.spawn ~table ~rng:(Netsim.Rng.create 42) ~cfg ~until:4.0;
  Netsim.Sim.run sim ~until:6.0;
  let n = Netsim.Flow_table.flow_count table in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "%d %d" n (Netsim.Sim.events sim));
  for h = 0 to n - 1 do
    Buffer.add_string b
      (Printf.sprintf " %h %h %h"
         (Netsim.Flow_table.start_time table h)
         (float_of_int (Netsim.Flow_table.delivered_bytes table h))
         (Netsim.Flow_table.completion_time table h))
  done;
  Alcotest.(check string)
    (Printf.sprintf "lite-churn: digest of %d flows" n)
    lite_churn_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "population"
    [
      ( "samplers",
        qsuite
          [ prop_poisson_iat_mean; prop_sizes_floored; prop_diurnal_gap_finite ]
      );
      ( "spawn",
        [
          Alcotest.test_case "deterministic" `Quick test_spawn_deterministic;
          Alcotest.test_case "insensitive to parent draws" `Quick
            test_spawn_insensitive_to_parent_draws;
          Alcotest.test_case "produces flows" `Quick test_spawn_produces_flows;
        ] );
      ( "golden-digest-rows",
        List.map
          (fun g -> Alcotest.test_case g.name `Quick (check_golden g))
          golden_rows
        @ [ Alcotest.test_case "lite-churn" `Quick check_lite_churn ] );
    ]
