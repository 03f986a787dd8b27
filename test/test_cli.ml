(* The shared command-line session (lib/cli): --invariant widens the
   trace filter, and lanes merge in lane order at any pool size. *)

let check_bool = Alcotest.(check bool)
let spec = "q: always ev=enqueue & backlog<=150000"

let read path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --invariant widens --trace-filter to whatever its specs need: with
   the filter at fault events only, a pkt spec brings enqueue events
   into the trace export. *)
let test_invariant_widens () =
  let dir = Filename.temp_dir "libra-cli" "" in
  let traced invariants =
    let file = Filename.concat dir (Printf.sprintf "t%d.jsonl" (List.length invariants)) in
    let v =
      Cli.install
        { Cli.none with trace_out = Some file; trace_filter = Some "fault"; invariants }
    in
    let s = Cli.Session.create ~manifest:(Obs.Manifest.default ()) v in
    ignore
      (Cli.Session.wrap s ~lane:0 (fun () ->
           Harness.Scenario.run_uniform ~factory:Harness.Ccas.cubic ~duration:0.5
             (Harness.Scenario.make_spec (Traces.Rate.constant 12.0))));
    Cli.Session.export s;
    read file
  in
  check_bool "filter alone drops enqueues" false (contains (traced []) {|"ev":"enqueue"|});
  check_bool "widened to the spec's enqueues" true
    (contains (traced [ spec ]) {|"ev":"enqueue"|})

(* Four seeded runs handed to the pool out of lane order, on pools of
   1 and 3 domains: trace, metrics and rollup exports are
   byte-identical, and trace lanes come out ascending. *)
let test_lanes_merge_in_order () =
  let dir = Filename.temp_dir "libra-cli" "" in
  let spec = Harness.Scenario.make_spec (Traces.Rate.constant 12.0) in
  let export size =
    let file ext = Filename.concat dir (Printf.sprintf "d%d.%s" size ext) in
    let v =
      Cli.install
        {
          Cli.none with
          trace_out = Some (file "jsonl");
          metrics_out = Some (file "csv");
          rollup_out = Some (file "rollup.csv");
        }
    in
    let s = Cli.Session.create ~manifest:(Obs.Manifest.default ()) v in
    let pool = Exec.Pool.create ~size () in
    ignore
      (Exec.Pool.map pool
         (fun lane ->
           Cli.Session.wrap s ~lane (fun () ->
               Harness.Scenario.run_uniform ~seed:(lane + 1) ~factory:Harness.Ccas.cubic
                 ~duration:0.5 spec))
         [| 3; 1; 0; 2 |]);
    Exec.Pool.shutdown pool;
    Cli.Session.export s;
    (read (file "jsonl"), read (file "csv"), read (file "rollup.csv"))
  in
  let t1, m1, r1 = export 1 in
  let t3, m3, r3 = export 3 in
  check_bool "trace identical" true (t1 = t3);
  check_bool "metrics identical" true (m1 = m3 && m1 <> "");
  check_bool "rollup identical" true (r1 = r3 && r1 <> "");
  let lanes =
    List.filter_map
      (fun line ->
        match Obs.Json.parse line with
        | Ok j -> Option.bind (Obs.Json.member "lane" j) Obs.Json.num
        | Error _ -> None)
      (String.split_on_char '\n' t1)
  in
  check_bool "lanes ascending" true (lanes = List.sort compare lanes);
  check_bool "all four lanes" true (List.sort_uniq compare lanes = [ 0.; 1.; 2.; 3. ])

let () =
  Alcotest.run "cli"
    [
      ( "session",
        [
          Alcotest.test_case "invariant widens categories" `Quick test_invariant_widens;
          Alcotest.test_case "lanes merge in lane order" `Quick test_lanes_merge_in_order;
        ] );
    ]
