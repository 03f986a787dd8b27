(* One benchmark pass over a workload: set-up, a measured closed batch
   of scenario runs, output verification, and (with --trace 1) a
   traced batch that times each layer from outside, through the
   library's public entry points only. perfbench/run.py builds this
   executable in the release profile, runs it, and prints the result.

   Usage: bench.exe --workload W --seed N --seconds S --trace 0|1
                    [--setup-only] [--t0-ns NS] [--print-digests]

   The last stdout line is a JSON object with the raw figures. *)

let process_t0 = Spans.now ()

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

(* ---------- arguments ---------- *)

type args = {
  workload : Workloads.name;
  seed : int;
  seconds : int;
  trace : bool;
  setup_only : bool;
  t0 : float;  (* process start on the monotonic clock *)
  print_digests : bool;
}

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref 10 in
  let trace = ref false and setup_only = ref false and t0 = ref process_t0 in
  let print_digests = ref false in
  let int_arg name v =
    match int_of_string_opt v with Some n -> n | None -> fail "%s: bad integer %S" name v
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      (match Workloads.of_string v with
      | Some w -> workload := Some w
      | None -> fail "unknown workload %S (wired-deep, lte-libra, churn)" v);
      go rest
    | "--seed" :: v :: rest ->
      seed := Some (int_arg "--seed" v);
      go rest
    | "--seconds" :: v :: rest ->
      seconds := int_arg "--seconds" v;
      if !seconds < 1 then fail "--seconds must be positive";
      go rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> trace := false
      | "1" -> trace := true
      | _ -> fail "--trace takes 0 or 1");
      go rest
    | "--t0-ns" :: v :: rest ->
      t0 := float_of_int (int_arg "--t0-ns" v) *. 1e-9;
      go rest
    | "--setup-only" :: rest ->
      setup_only := true;
      go rest
    | "--print-digests" :: rest ->
      print_digests := true;
      go rest
    | a :: _ -> fail "unexpected argument %S" a
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed) with
  | Some workload, Some seed ->
    {
      workload;
      seed;
      seconds = !seconds;
      trace = !trace;
      setup_only = !setup_only;
      t0 = !t0;
      print_digests = !print_digests;
    }
  | _ -> fail "--workload and --seed are required"

(* The seed whose outputs are pinned by perfbench/ref/; any other seed
   is checked with sanity predicates instead. *)
let reference_seed = 1
let ref_path w = Filename.concat "perfbench/ref" (Workloads.to_string w ^ ".txt")
let out_dir = ".perfbench"

(* ---------- per-run outputs ---------- *)

type counts = {
  events : int;
  queue_drops : int;
  random_drops : int;
  acked : int;
  lost : int;
  minor_words : float;
  major_words : float;  (* allocated directly in the major heap *)
  nn_forwards : int;
  flows_added : int;
  flows_completed : int;
}

type output = { digest : string; sane : bool; counts : counts }

let md5 s = String.sub (Digest.to_hex (Digest.string s)) 0 16
let finite = Float.is_finite

let uniform_output (o : Harness.Scenario.outcome) =
  let s = o.Harness.Scenario.summary in
  let stats = List.map (fun f -> f.Netsim.Network.stats) s.Netsim.Network.flows in
  let sum f = List.fold_left (fun a st -> a + f st) 0 stats in
  let u = o.utilization and d = o.mean_delay and l = o.loss_rate and th = o.throughput in
  let delivered = s.link_delivered_bytes in
  {
    digest =
      md5
        (Printf.sprintf "%h %h %h %h %d %d %d %d" u d l th s.events s.queue_drops
           s.random_drops delivered);
    sane =
      finite u && finite d && finite l && finite th && u >= 0.0 && u <= 1.0
      && float_of_int delivered <= s.capacity_bytes
      && s.events > 0;
    counts =
      {
        events = s.events;
        queue_drops = s.queue_drops;
        random_drops = s.random_drops;
        acked = sum Netsim.Flow_stats.total_acked_pkts;
        lost = sum Netsim.Flow_stats.total_lost_pkts;
        minor_words = 0.0;
        major_words = 0.0;
        nn_forwards = 0;
        flows_added = 0;
        flows_completed = 0;
      };
  }

(* churn: an arena Flow_table behind one constant-rate link, filled by
   Population arrivals, exactly as the population experiment builds it. *)
let churn_run ~seed ~duration (c : Workloads.churn) ~on_run =
  let sim = Netsim.Sim.create () in
  let table = Netsim.Flow_table.create ~capacity:4096 ~lite:true ~sim () in
  let rng = Netsim.Rng.create seed in
  let rate_bps = Netsim.Units.mbps_to_bps c.bw_mbps in
  let link =
    Netsim.Link.create ~const_rate:rate_bps ~sim
      ~rate_fn:(fun _ -> rate_bps)
      ~grain:0.01
      ~buffer_bytes:(Netsim.Units.kb c.buffer_kb)
      ~loss_p:0.0 ~rng
      ~deliver:(Netsim.Flow_table.on_pkt_delivered table)
      ()
  in
  Netsim.Flow_table.attach table link;
  let cfg =
    {
      (Netsim.Population.default ~rate:c.rate ()) with
      Netsim.Population.sizes = Netsim.Population.Pareto { xm = c.xm; alpha = c.alpha };
      rtt = c.rtt;
    }
  in
  on_run (fun () ->
      Netsim.Population.spawn ~table ~rng ~cfg ~until:duration;
      Netsim.Sim.run sim ~until:duration);
  let n = Netsim.Flow_table.flow_count table in
  let fcts = ref [] and acked = ref 0 and lost = ref 0 in
  for h = 0 to n - 1 do
    acked := !acked + Netsim.Flow_table.acked_pkts table h;
    lost := !lost + Netsim.Flow_table.lost_pkts table h;
    let ct = Netsim.Flow_table.completion_time table h in
    if Float.is_finite ct then fcts := (ct -. Netsim.Flow_table.start_time table h) :: !fcts
  done;
  let fct = Array.of_list !fcts in
  Array.sort Float.compare fct;
  let completed = Array.length fct in
  let pct = Harness.Exp_population.fct_percentile fct in
  let p50 = pct 0.5 and p95 = pct 0.95 and p99 = pct 0.99 in
  let delivered = Netsim.Link.delivered_bytes link in
  let events = Netsim.Sim.events sim in
  let qd = Netsim.Link.queue_drops link in
  let util = float_of_int delivered /. (rate_bps *. duration) in
  {
    digest =
      md5 (Printf.sprintf "%h %h %h %d %d %d %d %d" p50 p95 p99 completed n events delivered qd);
    sane =
      finite p50 && finite p95 && finite p99 && p50 > 0.0 && completed > 0 && completed <= n
      && util >= 0.0 && util <= 1.0 && events > 0;
    counts =
      {
        events;
        queue_drops = qd;
        random_drops = Netsim.Link.random_drops link;
        acked = !acked;
        lost = !lost;
        minor_words = 0.0;
        major_words = 0.0;
        nn_forwards = 0;
        flows_added = n;
        flows_completed = completed;
      };
  }

(* ---------- the traced layer: a timing/counting CCA wrapper ---------- *)

type cca_meter = {
  mutable ack_n : int;
  mutable ack_s : float;
  mutable send_n : int;
  mutable send_s : float;
  mutable loss_n : int;
  mutable loss_s : float;
  mutable rc_n : int;  (* pacing_rate + cwnd queries *)
  mutable rc_s : float;
}

let new_meter () =
  { ack_n = 0; ack_s = 0.0; send_n = 0; send_s = 0.0; loss_n = 0; loss_s = 0.0; rc_n = 0; rc_s = 0.0 }

let meter_cca m (c : Netsim.Cca.t) : Netsim.Cca.t =
  let now = Spans.now in
  {
    c with
    on_ack =
      (fun a ->
        let t = now () in
        c.on_ack a;
        m.ack_s <- m.ack_s +. (now () -. t);
        m.ack_n <- m.ack_n + 1);
    on_send =
      (fun a ->
        let t = now () in
        c.on_send a;
        m.send_s <- m.send_s +. (now () -. t);
        m.send_n <- m.send_n + 1);
    on_loss =
      (fun a ->
        let t = now () in
        c.on_loss a;
        m.loss_s <- m.loss_s +. (now () -. t);
        m.loss_n <- m.loss_n + 1);
    pacing_rate =
      (fun ~now:n ->
        let t = now () in
        let r = c.pacing_rate ~now:n in
        m.rc_s <- m.rc_s +. (now () -. t);
        m.rc_n <- m.rc_n + 1;
        r);
    cwnd =
      (fun ~now:n ->
        let t = now () in
        let r = c.cwnd ~now:n in
        m.rc_s <- m.rc_s +. (now () -. t);
        m.rc_n <- m.rc_n + 1;
        r);
  }

(* Libra controllers built through make_*_instrumented, per run. *)
type libra_counts = { cycles : int; rl_wins : int; fallbacks : int }

let no_libra = { cycles = 0; rl_wins = 0; fallbacks = 0 }

let instrumented_factory name controllers : Harness.Ccas.factory =
  let make =
    match name with
    | "c-libra" -> Libra.make_c_libra_instrumented
    | "b-libra" -> Libra.make_b_libra_instrumented
    | other -> invalid_arg ("no instrumented factory for " ^ other)
  in
  fun ~seed ->
    let inst = make ~params:(Harness.Ccas.libra_params ~seed) () in
    controllers := inst.Libra.controller :: !controllers;
    inst.Libra.cca

let libra_counts controllers =
  List.fold_left
    (fun acc c ->
      let tel = Libra.Controller.telemetry c in
      let wins =
        List.length
          (List.filter
             (fun (cy : Libra.Telemetry.cycle) -> cy.chosen = Libra.Telemetry.Rl)
             (Libra.Telemetry.cycles tel))
      in
      {
        cycles = acc.cycles + Libra.Telemetry.total tel;
        rl_wins = acc.rl_wins + wins;
        fallbacks = acc.fallbacks + Libra.Controller.rl_fallbacks c;
      })
    no_libra controllers

(* ---------- set-up ---------- *)

type policy = { digest : string; train_s : float; forwards : int; rollbacks : int }

type setup = {
  runs : Workloads.run array;
  specs : Harness.Scenario.spec option array;
  pool : Exec.Pool.t option;
  policy : policy option;
}

let policy_digest (o : Rlcc.Train.outcome) =
  let p = o.Rlcc.Train.policy in
  let b = Buffer.create 4096 in
  let add a = Array.iter (fun x -> Buffer.add_string b (Printf.sprintf "%h," x)) a in
  add p.Rlcc.Ppo.actor.Rlcc.Nn.params;
  add p.Rlcc.Ppo.critic.Rlcc.Nn.params;
  add p.Rlcc.Ppo.log_std;
  md5 (Buffer.contents b)

let setup spans (a : args) =
  let n = Workloads.batch_size a.workload ~seconds:a.seconds in
  let runs = Workloads.generate a.workload ~seed:a.seed ~n in
  let specs =
    Array.map
      (fun (r : Workloads.run) ->
        match r.kind with
        | Workloads.Churn _ -> None
        | Workloads.Uniform { link; rtt; buffer_kb; _ } ->
          let trace =
            match link with
            | Workloads.Wired bw -> Traces.Rate.constant bw
            | Workloads.Lte { scenario; seed } ->
              Spans.with_span spans ~run:r.index "traces.generate" (fun _ ->
                  Traces.Lte.generate ~seed ~duration:r.duration scenario)
          in
          Some (Harness.Scenario.make_spec ~rtt ~buffer_kb trace))
      runs
  in
  let policy, pool =
    match a.workload with
    | Workloads.Lte_libra ->
      let f0 = Rlcc.Nn.forward_count () in
      let t0 = Spans.now () in
      let o = Spans.with_span spans "policy.train" (fun _ -> Rlcc.Pretrained.libra_policy ()) in
      let train_s = Spans.now () -. t0 in
      let policy =
        {
          digest = policy_digest o;
          train_s;
          forwards = Rlcc.Nn.forward_count () - f0;
          rollbacks = o.Rlcc.Train.rollbacks;
        }
      in
      let pool =
        Spans.with_span spans "pool.create" (fun _ ->
            Exec.Pool.create ~size:(Exec.Pool.default_size ()) ())
      in
      (Some policy, Some pool)
    | Workloads.Wired_deep | Workloads.Churn_w -> (None, None)
  in
  { runs; specs; pool; policy }

(* ---------- one measured batch ---------- *)

type record = {
  index : int;
  domain : int;
  status : Stats.run_status;
  out : output option;
  submit : float;
  start : float;
  stop : float;
  meter : cca_meter;
  libra : libra_counts;
  speed : float;  (* the host's, from the Calib kernel; 1 when not bracketed *)
  cal_s : float;  (* wall time the run's own kernel runs took *)
}

(* The run's wall time at the reference host's speed. *)
let norm_wall r = (r.stop -. r.start) *. r.speed

(* Gc.minor_words is exact; the minor count in Gc.counters is not on
   OCaml 5. Promotion depends on when minor collections fall, so only
   words allocated directly in the major heap repeat run to run. *)
let gc_words () =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  (minor, major -. promoted)

(* Each run executes as the CLIs execute one: in a fresh flight
   recorder at their default capacity, under Supervisor.protect, on
   whatever engine Scenario.run_uniform picks by default. *)
let flight_capacity = 2048

(* Untraced passes over the batch in one measured run. *)
let passes = 3

type pass = {
  measure : float;  (* wall seconds, less the kernel runs' share *)
  norm : float;  (* at the reference host's speed, kernel runs left out *)
  verify_time : float;
  recs : record array;
  statuses : Stats.run_status array;
}

let exec_run ~(a : args) ~(st : setup) ~traced ~spans ~parent ~submit i =
  let r = st.runs.(i) in
  let meter = new_meter () in
  let controllers = ref [] in
  (* An untraced run on one domain is bracketed by the calibration
     kernel. Pool runs and traced runs are not, their figures stay raw
     wall time: on a pool the kernel cannot run beside a run, because
     the other workers' minor collections stop every domain, so its
     time would follow the program's allocation rate; and a kernel run
     on the idle pool between passes gauges one core while the pass
     uses all of them (tried: it made lte-libra's spread across seeds
     wider, not narrower). *)
  let bracket = (not traced) && st.pool = None in
  let cal0 = if bracket then Calib.time () else nan in
  let start = Spans.now () in
  let f0 = Rlcc.Nn.forward_count () in
  let minor0, major0 = gc_words () in
  let body parent =
    let on_run f =
      if traced then
        Spans.with_span spans ~parent ~run:i "netsim.run" (fun id ->
            let t0 = Spans.now () in
            let v = f () in
            let t1 = Spans.now () in
            let agg name calls busy =
              if calls > 0 then Spans.aggregate spans ~parent:id ~run:i ~t0 ~t1 name ~calls ~busy
            in
            agg "cca.on_ack" meter.ack_n meter.ack_s;
            agg "cca.on_send" meter.send_n meter.send_s;
            agg "cca.on_loss" meter.loss_n meter.loss_s;
            agg "cca.rate_cwnd" meter.rc_n meter.rc_s;
            v)
      else f ()
    in
    match r.kind with
    | Workloads.Churn c -> churn_run ~seed:r.seed ~duration:r.duration c ~on_run
    | Workloads.Uniform { cca; n_flows; _ } ->
      let spec = Option.get st.specs.(i) in
      let factory =
        if not traced then Harness.Ccas.find cca
        else
          let base =
            match a.workload with
            | Workloads.Lte_libra -> instrumented_factory cca controllers
            | _ -> Harness.Ccas.find cca
          in
          fun ~seed -> meter_cca meter (base ~seed)
      in
      uniform_output
        (on_run (fun () ->
             Harness.Scenario.run_uniform ~seed:r.seed ~n_flows ~factory ~duration:r.duration
               spec))
  in
  let supervised parent =
    let fl = Obs.Flight.create ~capacity:flight_capacity () in
    Obs.Flight.run fl ~lane:i (fun () ->
        Exec.Supervisor.protect
          ~context:(Printf.sprintf "%s/%d" (Workloads.to_string a.workload) i)
          (fun ~attempt:_ -> body parent))
  in
  let status, out =
    match
      if traced then Spans.with_span spans ~parent ~run:i "supervisor.protect" supervised
      else supervised parent
    with
    | Ok o -> (Stats.Ok_run, Some o)
    | Error _ -> (Stats.Supervised_error, None)
    | exception _ -> (Stats.Raised, None)
  in
  let minor1, major1 = gc_words () in
  let forwards = Rlcc.Nn.forward_count () - f0 in
  let stop = Spans.now () in
  let cal1 = if bracket then Calib.time () else nan in
  let out =
    Option.map
      (fun o ->
        {
          o with
          counts =
            { o.counts with minor_words = minor1 -. minor0; major_words = major1 -. major0;
              nn_forwards = forwards };
        })
      out
  in
  {
    index = i;
    domain = (Domain.self () :> int);
    status;
    out;
    submit;
    start;
    stop;
    meter;
    libra = libra_counts !controllers;
    speed = (if bracket then Calib.speed ((cal0 +. cal1) /. 2.0) else 1.0);
    cal_s = (if bracket then cal0 +. cal1 else 0.0);
  }

let exec_batch ~a ~st ~traced ~spans indices =
  Spans.with_span spans (if traced then "pass.traced" else "pass.plain") (fun parent ->
      let submit = Spans.now () in
      let task i =
        if traced && st.pool <> None then
          Spans.with_span spans ~parent ~run:i "pool.task" (fun id ->
              exec_run ~a ~st ~traced ~spans ~parent:id ~submit i)
        else exec_run ~a ~st ~traced ~spans ~parent ~submit i
      in
      match st.pool with
      | None -> Array.map task indices
      | Some p -> Exec.Pool.map p task indices)

(* ---------- verification ---------- *)

let load_reference w =
  match In_channel.with_open_text (ref_path w) In_channel.input_all with
  | exception Sys_error m -> fail "cannot read reference digests: %s" m
  | s ->
    String.split_on_char '\n' s
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' (String.trim l) with
           | [ "policy"; d ] -> Some ("policy", d)
           | [ "run"; i; d ] -> Some (i, d)
           | _ -> None)

(* A run's status after its output check: the reference digest on the
   reference seed, the sanity predicates on any other. *)
let verify ~(a : args) ~reference (recs : record array) =
  Array.map
    (fun r ->
      match (r.status, r.out) with
      | Stats.Ok_run, Some o ->
        let ok =
          if a.seed = reference_seed then
            List.assoc_opt (string_of_int r.index) reference
            |> Option.fold ~none:o.sane ~some:(fun d -> d = o.digest && o.sane)
          else o.sane
        in
        if ok then Stats.Ok_run else Stats.Check_failed
      | s, _ -> s)
    recs

(* ---------- output ---------- *)

(* VmHWM, less the calibration kernel's table: the program's own peak. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
    List.find_map
      (fun l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ ->
            Option.map
              (fun k -> (float_of_int k /. 1024.0) -. Calib.resident_mb)
              (int_of_string_opt kb)
          | [] -> None)
        | _ -> None)
      (String.split_on_char '\n' s)
    |> Option.value ~default:nan

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"
let json_obj kvs = "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) kvs) ^ "}"

let sum_counts f (recs : record array) =
  Array.fold_left (fun acc r -> match r.out with Some o -> acc + f o.counts | None -> acc) 0 recs

let sum_countsf f (recs : record array) =
  Array.fold_left (fun acc r -> match r.out with Some o -> acc +. f o.counts | None -> acc) 0.0 recs

let sim_seconds st (recs : record array) =
  Array.fold_left
    (fun acc r -> if r.status = Stats.Ok_run then acc +. st.runs.(r.index).Workloads.duration else acc)
    0.0 recs

(* The counted figures a re-run of the same run must reproduce
   exactly: engine work, allocation, NN forwards and, from the traced
   pass, CCA call counts and Libra decisions. *)
let counted_key (r : record) =
  match r.out with
  | None -> "failed"
  | Some o ->
    let c = o.counts in
    Printf.sprintf "%d %d %d %d %d %.0f %.0f %d %d %d" c.events c.queue_drops c.random_drops c.acked
      c.lost c.minor_words c.major_words c.nn_forwards c.flows_added c.flows_completed

let traced_key (r : record) =
  let m = r.meter and l = r.libra in
  Printf.sprintf "%d %d %d %d %d %d %d" m.ack_n m.send_n m.loss_n m.rc_n l.cycles l.rl_wins
    l.fallbacks

let digest_of (r : record) = Option.map (fun (o : output) -> o.digest) r.out

(* The first run each domain executes also pays that domain's one-time
   library initialisation (a few words of per-domain state), so its
   allocation is not compared across passes. *)
let first_on_domain (recs : record array) i =
  Array.for_all (fun (r : record) -> r.domain <> recs.(i).domain || r.start >= recs.(i).start) recs

(* Every counted figure of a run must repeat exactly when the run is
   repeated: [again] re-ran the first runs of [first]. *)
let check_repeat ~key ~first ~again ~report =
  Array.iteri
    (fun i r ->
      if key r <> key first.(i) && not (first_on_domain first i) then
        report
          (Printf.sprintf "run %d: counted metrics differ on re-run (%s vs %s)" i (key r)
             (key first.(i))))
    again

(* The per-layer table. Counted figures come from the untraced pass
   [plain]; times, CCA calls and Libra decisions from [traced]. *)
let layer_metrics ~st ~spans ~plain ~traced ~sim_s ~traced_total ~untraced_total ~traced_s =
  let all_spans = Spans.all spans in
  let named name = List.filter (fun (s : Spans.span) -> s.name = name) all_spans in
  let netsim = named "netsim.run" in
  let run_s = Spans.total_busy netsim in
  let self_s = List.fold_left (fun acc s -> acc +. Spans.self_time all_spans s) 0.0 netsim in
  let cca name = named ("cca." ^ name) in
  let cca_busy =
    List.fold_left (fun acc n -> acc +. Spans.total_busy (cca n)) 0.0
      [ "on_ack"; "on_send"; "on_loss"; "rate_cwnd" ]
  in
  let sum f = float_of_int (sum_counts f plain) in
  let events = sum (fun c -> c.events) in
  let forwards = sum (fun c -> c.nn_forwards) in
  let lib =
    Array.fold_left
      (fun acc r ->
        {
          cycles = acc.cycles + r.libra.cycles;
          rl_wins = acc.rl_wins + r.libra.rl_wins;
          fallbacks = acc.fallbacks + r.libra.fallbacks;
        })
      no_libra traced
  in
  let tasks = named "pool.task" in
  let pool_size = match st.pool with Some p -> float_of_int (Exec.Pool.size p) | None -> 1.0 in
  let busy = Spans.total_busy tasks in
  let waits = Array.map (fun r -> r.start -. r.submit) traced in
  let ratio x y = if y > 0.0 then x /. y else 0.0 in
  let policy f = Option.fold ~none:0.0 ~some:f st.policy in
  let failures =
    Array.fold_left (fun acc r -> if r.status = Stats.Supervised_error then acc + 1 else acc) 0 plain
  in
  [
    ("netsim.run_s", run_s);
    ("netsim.self_s", self_s);
    ("netsim.events_per_s", ratio events run_s);
    ("netsim.self_share", ratio self_s (traced_s *. pool_size));
    ("netsim.events", events);
    ("netsim.queue_drops", sum (fun c -> c.queue_drops));
    ("netsim.random_drops", sum (fun c -> c.random_drops));
    ("flow.acked_pkts", sum (fun c -> c.acked));
    ("flow.lost_pkts", sum (fun c -> c.lost));
    ("gc.minor_words_per_event", ratio (sum_countsf (fun c -> c.minor_words) plain) events);
    ("gc.major_words", sum_countsf (fun c -> c.major_words) plain);
    ("cca.on_ack.calls", float_of_int (Spans.total_calls (cca "on_ack")));
    ("cca.on_ack_s", Spans.total_busy (cca "on_ack"));
    ("cca.on_send.calls", float_of_int (Spans.total_calls (cca "on_send")));
    ("cca.on_send_s", Spans.total_busy (cca "on_send"));
    ("cca.on_loss.calls", float_of_int (Spans.total_calls (cca "on_loss")));
    ("cca.rate_cwnd.calls", float_of_int (Spans.total_calls (cca "rate_cwnd")));
    ("cca.rate_cwnd_s", Spans.total_busy (cca "rate_cwnd"));
    ("cca.share", ratio cca_busy run_s);
    ("nn.forwards", forwards);
    ("nn.forwards_per_sim_s", ratio forwards sim_s);
    ("libra.cycles", float_of_int lib.cycles);
    ("libra.rl_fallbacks", float_of_int lib.fallbacks);
    ("libra.rl_win_frac", ratio (float_of_int lib.rl_wins) (float_of_int lib.cycles));
    ("policy.train_s", policy (fun p -> p.train_s));
    ("policy.nn_forwards", policy (fun p -> float_of_int p.forwards));
    ("policy.rollbacks", policy (fun p -> float_of_int p.rollbacks));
    ("policy.train_share_of_total", ratio (policy (fun p -> p.train_s)) untraced_total);
    ("traces.generate_s", Spans.total_busy (named "traces.generate"));
    ("pool.tasks", float_of_int (List.length tasks));
    ("pool.busy_s", busy);
    ("pool.wait_s", if tasks = [] then 0.0 else Stats.median waits);
    ("pool.occupancy", ratio busy (traced_s *. pool_size));
    ("supervisor.failures", float_of_int failures);
    ("flow_table.flows_added", sum (fun c -> c.flows_added));
    ("flow_table.flows_completed", sum (fun c -> c.flows_completed));
    ("trace.overhead_frac", ratio traced_total untraced_total -. 1.0);
  ]

let () =
  let a = parse_args () in
  if Build_profile.name <> "release" then
    fail
      "built in the %S profile; dune's dev profile compiles with -opaque, which changes \
       inlining and allocation. Build with --profile release (perfbench/run.py does)."
      Build_profile.name;
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  Obs.Flight.set_dump_dir out_dir;
  let spans = Spans.create () in
  (* Set-up is bracketed by three cold kernel runs on each side, whose
     medians it takes the mean of. Neither the first three nor making
     the kernel's buffers is set-up. *)
  let cold () = Stats.median (Array.init 3 (fun _ -> Calib.cold_time ())) in
  let c0 = Spans.now () in
  Calib.prepare ();
  let k0 = cold () in
  let calib_s = Spans.now () -. c0 in
  let st = setup spans a in
  let setup_wall_s = Spans.now () -. a.t0 -. calib_s in
  let setup_speed = Calib.speed ((k0 +. cold ()) /. 2.0) in
  let setup_s = setup_wall_s *. setup_speed in
  if a.setup_only then begin
    print_endline
      (json_obj [ ("setup_s", json_num setup_s); ("setup_wall_s", json_num setup_wall_s) ]);
    Option.iter Exec.Pool.shutdown st.pool;
    exit 0
  end;
  let all = Array.init (Array.length st.runs) Fun.id in
  (* The measured phase, tracing off: the batch runs [passes] times.
     A run's time is the median of its passes, total_s takes the mean
     pass, and later passes show the counted figures repeat exactly. *)
  let reference = load_reference a.workload in
  let workers = match st.pool with Some p -> Exec.Pool.size p | None -> 1 in
  let batches =
    List.init passes (fun _ ->
        let m0 = Spans.now () in
        let recs = exec_batch ~a ~st ~traced:false ~spans all in
        let v0 = Spans.now () in
        let statuses = verify ~a ~reference recs in
        let verify_time = Spans.now () -. v0 in
        let kernel_s = Array.fold_left (fun acc r -> acc +. r.cal_s) 0.0 recs in
        let measure = v0 -. m0 -. (kernel_s /. float_of_int workers) in
        let norm =
          Stats.normalised_pass ~wall:measure
            (Array.to_list (Array.map (fun r -> (r.stop -. r.start, norm_wall r)) recs))
        in
        { measure; norm; verify_time; recs; statuses })
  in
  let mean f = List.fold_left (fun acc b -> acc +. f b) 0.0 batches /. float_of_int passes in
  let measure_s = mean (fun b -> b.norm) and verify_s = mean (fun b -> b.verify_time) in
  let measure_wall_s = mean (fun b -> b.measure) in
  let plain = (List.hd batches).recs in
  let runs = Array.concat (List.map (fun b -> b.recs) batches) in
  let statuses = Array.concat (List.map (fun b -> b.statuses) batches) in
  let failed, attempted, failed_frac = Stats.failed_frac (Array.to_list statuses) in
  let problems = ref [] in
  let report m = problems := m :: !problems in
  let problem fmt = Printf.ksprintf report fmt in
  (match st.policy with
  | Some p when List.assoc_opt "policy" reference <> Some p.digest ->
    problem "trained policy digest differs from the reference"
  | _ -> ());
  Array.iteri
    (fun i s ->
      if s <> Stats.Ok_run then
        problem "run %d failed (%s)" runs.(i).index
          (match s with
          | Stats.Raised -> "raised"
          | Supervised_error -> "supervisor error"
          | Check_failed -> "output check"
          | Ok_run -> "ok"))
    statuses;
  List.iter
    (fun b -> check_repeat ~key:counted_key ~first:plain ~again:b.recs ~report)
    (List.tl batches);
  let walls =
    Array.map
      (fun i -> Stats.median (Array.of_list (List.map (fun b -> norm_wall b.recs.(i)) batches)))
      all
  in
  let sim_s = sim_seconds st plain in
  let tail = Stats.tail walls in
  let layers =
    if not a.trace then []
    else begin
      let b0 = Spans.now () in
      let traced = exec_batch ~a ~st ~traced:true ~spans all in
      let traced_s = Spans.now () -. b0 in
      Array.iteri
        (fun i r ->
          if digest_of r <> digest_of plain.(i) then
            problem "run %d: traced digest differs from the untraced one" i)
        traced;
      let prefix = Array.sub all 0 (min (Array.length all) (max 4 (Array.length all / 8))) in
      check_repeat ~key:traced_key ~first:traced ~report
        ~again:(exec_batch ~a ~st ~traced:true ~spans:(Spans.create ()) prefix);
      (* Traced runs are not calibrated, so the per-layer figures
         compare raw wall times. *)
      layer_metrics ~st ~spans ~plain ~traced ~sim_s
        ~traced_total:(setup_wall_s +. traced_s +. verify_s)
        ~untraced_total:(setup_wall_s +. measure_wall_s +. verify_s)
        ~traced_s
    end
  in
  if a.trace then
    Spans.write spans
      (Filename.concat out_dir
         (Printf.sprintf "spans-%s-%d.jsonl" (Workloads.to_string a.workload) a.seed));
  if a.print_digests then begin
    Option.iter (fun p -> Printf.printf "policy %s\n" p.digest) st.policy;
    Array.iter (fun r -> Option.iter (fun d -> Printf.printf "run %d %s\n" r.index d) (digest_of r)) plain
  end;
  Option.iter Exec.Pool.shutdown st.pool;
  let manifest =
    Obs.Manifest.make ~seeds:[ a.seed ] ~scale:"perfbench" ~domains:workers
      ~extra:
        [
          ("workload", Obs.Json.Str (Workloads.to_string a.workload));
          ("build_profile", Obs.Json.Str Build_profile.name);
          ("nproc", Obs.Json.Num (float_of_int (Domain.recommended_domain_count ())));
          ("pool_size", Obs.Json.Num (float_of_int workers));
        ]
      ()
  in
  let median_s = Stats.median walls in
  print_endline
    (json_obj
       [
         ("correct", string_of_bool (!problems = []));
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("failed_frac", json_num failed_frac);
         ("setup_s", json_num setup_s);
         ("setup_wall_s", json_num setup_wall_s);
         ("measure_s", json_num measure_s);
         ("measure_wall_s", json_num measure_wall_s);
         ("host_speed", json_num setup_speed);
         ("verify_s", json_num verify_s);
         ("sim_s", json_num sim_s);
         ("events", string_of_int (sum_counts (fun c -> c.events) plain));
         ("run_p50_s", json_num median_s);
         ("pass_s", "[" ^ String.concat "," (List.map (fun b -> json_num b.norm) batches) ^ "]");
         ( "pass_wall_s",
           "[" ^ String.concat "," (List.map (fun b -> json_num b.measure) batches) ^ "]" );
         ( "run_tail",
           match tail with
           | None -> "null"
           | Some t ->
             json_obj
               [
                 ("percentile", string_of_int t.percentile);
                 ("rank", string_of_int t.rank);
                 ("value", json_num t.value);
                 ("samples", string_of_int t.samples);
               ] );
         ("peak_rss_mb", json_num (peak_rss_mb ()));
         ("problems", "[" ^ String.concat "," (List.rev_map (Printf.sprintf "%S") !problems) ^ "]");
         ("layers", json_obj (List.map (fun (k, v) -> (k, json_num v)) layers));
         ("manifest", Obs.Json.to_compact manifest);
       ])
