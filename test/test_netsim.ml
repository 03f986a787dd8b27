(* Unit, property and integration tests for the netsim substrate. *)

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Netsim.Rng.create 7 and b = Netsim.Rng.create 7 in
  for _ = 1 to 100 do
    check_float "same stream" (Netsim.Rng.float a) (Netsim.Rng.float b)
  done

let test_rng_distinct_seeds () =
  let a = Netsim.Rng.create 1 and b = Netsim.Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Netsim.Rng.float a = Netsim.Rng.float b then incr same
  done;
  check_bool "streams differ" true (!same < 5)

(* split_key derives from the parent's original seed, not its evolving
   state: the keyed stream must not move when the parent draws more. *)
let test_rng_split_key_stable () =
  let draws rng n = List.init n (fun _ -> Netsim.Rng.float rng) in
  let fresh = Netsim.Rng.create 7 in
  let expected = draws (Netsim.Rng.split_key fresh ~key:3) 20 in
  let parent = Netsim.Rng.create 7 in
  let parent_before = draws parent 10 in
  (* 10 extra draws on the parent must not shift the keyed child. *)
  let got = draws (Netsim.Rng.split_key parent ~key:3) 20 in
  List.iter2 (check_float "keyed stream stable under parent draws") expected got;
  (* ... and deriving the child must not shift the parent's own stream. *)
  let parent2 = Netsim.Rng.create 7 in
  List.iter2
    (check_float "parent stream unperturbed")
    parent_before (draws parent2 10)

let test_rng_split_key_distinct () =
  let rng = Netsim.Rng.create 7 in
  let a = Netsim.Rng.split_key rng ~key:0 in
  let b = Netsim.Rng.split_key rng ~key:1 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Netsim.Rng.float a = Netsim.Rng.float b then incr same
  done;
  check_bool "keyed streams differ" true (!same < 5)

let prop_rng_range =
  QCheck.Test.make ~name:"rng floats in [0,1)" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Netsim.Rng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Netsim.Rng.float rng in
        if v < 0.0 || v >= 1.0 then ok := false
      done;
      !ok)

let prop_rng_uniform_bounds =
  QCheck.Test.make ~name:"rng uniform respects bounds" ~count:200
    QCheck.(pair small_int (pair (float_bound_exclusive 100.0) pos_float))
    (fun (seed, (lo, width)) ->
      QCheck.assume (Float.is_finite width && width > 0.0 && width < 1e6);
      let rng = Netsim.Rng.create seed in
      let v = Netsim.Rng.uniform rng ~lo ~hi:(lo +. width) in
      v >= lo && v < lo +. width)

(* ------------------------------------------------------------------ *)
(* Event heap *)

let test_heap_orders_events () =
  let h = Netsim.Event_heap.create () in
  let order = ref [] in
  Netsim.Event_heap.push h ~time:3.0 (fun () -> order := 3 :: !order);
  Netsim.Event_heap.push h ~time:1.0 (fun () -> order := 1 :: !order);
  Netsim.Event_heap.push h ~time:2.0 (fun () -> order := 2 :: !order);
  let rec drain () =
    match Netsim.Event_heap.pop h with
    | Some (_, action) ->
      action ();
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "time order" [ 3; 2; 1 ] !order

let test_heap_fifo_ties () =
  let h = Netsim.Event_heap.create () in
  let order = ref [] in
  for i = 0 to 9 do
    Netsim.Event_heap.push h ~time:1.0 (fun () -> order := i :: !order)
  done;
  let rec drain () =
    match Netsim.Event_heap.pop h with
    | Some (_, action) ->
      action ();
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "insertion order on ties"
    [ 9; 8; 7; 6; 5; 4; 3; 2; 1; 0 ]
    !order

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:100
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun times ->
      let h = Netsim.Event_heap.create () in
      List.iter (fun time -> Netsim.Event_heap.push h ~time (fun () -> ())) times;
      let rec drain last =
        match Netsim.Event_heap.pop h with
        | None -> true
        | Some (time, _) -> time >= last && drain time
      in
      drain neg_infinity)

let test_heap_grows () =
  let h = Netsim.Event_heap.create () in
  for i = 0 to 9999 do
    Netsim.Event_heap.push h ~time:(float_of_int (i mod 97)) (fun () -> ())
  done;
  check_int "all retained" 10000 (Netsim.Event_heap.size h)

(* Randomly-timed pushes (few distinct times, so ties abound, and well
   past the initial 256-entry capacity): pop order must be time
   ascending with ties in insertion order. *)
let test_heap_random_pop_order () =
  let rng = Netsim.Rng.create 7 in
  let n = 2000 in
  let h = Netsim.Event_heap.create () in
  let pushed =
    Array.init n (fun i ->
        let time = float_of_int (Netsim.Rng.int rng 17) /. 4.0 in
        Netsim.Event_heap.push h ~time (fun () -> ());
        (time, i))
  in
  check_int "all retained" n (Netsim.Event_heap.size h);
  let expected = Array.copy pushed in
  (* Stable sort by time = time asc, ties in insertion order. *)
  Array.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2) expected;
  let popped =
    Array.init n (fun _ ->
        let e = Netsim.Event_heap.pop_entry_exn h in
        (e.Netsim.Event_heap.time, e.Netsim.Event_heap.seq))
  in
  check_bool "empty after draining" true (Netsim.Event_heap.is_empty h);
  Array.iteri
    (fun i (time, seq) ->
      let ptime, pseq = popped.(i) in
      if ptime <> time || pseq <> seq then
        Alcotest.fail
          (Printf.sprintf "pop %d: got (%g, #%d), want (%g, #%d)" i ptime pseq time
             seq))
    expected

(* Coded and closure events mixed, on few distinct times (ties abound)
   and well past the initial capacity, in two rounds so freed closure
   slots are reused: every pop must be the next entry of a stable sort
   by time of what is pending (ties in insertion order), matching on
   time, seq, kind, both coded operands and the closure itself. *)
type pushed = { ptime : float; pseq : int; pkind : int; pa : int; pb : int; act : unit -> unit }

let test_heap_mixed_model () =
  let module H = Netsim.Event_heap in
  let rng = Netsim.Rng.create 11 in
  let h = H.create () in
  let seq = ref 0 in
  let push_n n =
    List.init n (fun i ->
        let ptime = float_of_int (Netsim.Rng.int rng 13) /. 8.0 in
        let e =
          if Netsim.Rng.int rng 3 = 0 then begin
            let act () = ignore (Sys.opaque_identity i) in
            H.push h ~time:ptime act;
            { ptime; pseq = !seq; pkind = 0; pa = 0; pb = 0; act }
          end
          else begin
            let pkind = 1 + Netsim.Rng.int rng 5 in
            let pa = Netsim.Rng.int rng 1000 and pb = i in
            H.push_coded h ~time:ptime ~kind:pkind ~a:pa ~b:pb;
            { ptime; pseq = !seq; pkind; pa; pb; act = ignore }
          end
        in
        incr seq;
        e)
  in
  let pop_check pending k =
    let sorted = List.stable_sort (fun x y -> compare x.ptime y.ptime) pending in
    List.iteri
      (fun i e ->
        if i < k then begin
          H.pop_into h;
          let what = Printf.sprintf "pop of #%d" e.pseq in
          check_bool (what ^ ": time") true (H.scratch_time h = e.ptime);
          check_int (what ^ ": seq") e.pseq (H.scratch_seq h);
          check_int (what ^ ": kind") e.pkind (H.scratch_kind h);
          if e.pkind = 0 then
            check_bool (what ^ ": closure") true (H.scratch_action h == e.act)
          else begin
            check_int (what ^ ": a") e.pa (H.scratch_a h);
            check_int (what ^ ": b") e.pb (H.scratch_b h)
          end
        end)
      sorted;
    List.filteri (fun i _ -> i >= k) sorted
  in
  let rest = pop_check (push_n 1500) 700 in
  check_int "pending after round 1" 800 (H.size h);
  let rest = pop_check (rest @ push_n 1500) 2300 in
  check_bool "drained" true (rest = [] && H.is_empty h)

(* 10^5 interleaved pushes and pops: the closure side table never
   grows past the most closure events ever pending at once. *)
let test_heap_closure_slots_bounded () =
  let module H = Netsim.Event_heap in
  let rng = Netsim.Rng.create 5 in
  let h = H.create () in
  let pending = ref 0 and peak = ref 0 in
  for i = 1 to 100_000 do
    if H.size h > 0 && Netsim.Rng.int rng 2 = 0 then begin
      H.pop_into h;
      if H.scratch_kind h = 0 then decr pending
    end
    else if Netsim.Rng.bool rng ~p:0.5 then begin
      H.push h ~time:(float_of_int (i + Netsim.Rng.int rng 500)) ignore;
      incr pending;
      if !pending > !peak then peak := !pending
    end
    else H.push_coded h ~time:(float_of_int (i + Netsim.Rng.int rng 500)) ~kind:1 ~a:i ~b:0
  done;
  check_bool
    (Printf.sprintf "side table %d <= peak pending closures %d" (H.closure_slots h) !peak)
    true
    (H.closure_slots h <= !peak && !peak > 0)

(* ------------------------------------------------------------------ *)
(* Sim *)

let test_sim_runs_in_order () =
  let sim = Netsim.Sim.create () in
  let log = ref [] in
  Netsim.Sim.at sim 0.5 (fun () -> log := ("b", Netsim.Sim.now sim) :: !log);
  Netsim.Sim.at sim 0.1 (fun () ->
      log := ("a", Netsim.Sim.now sim) :: !log;
      Netsim.Sim.after sim 0.2 (fun () -> log := ("c", Netsim.Sim.now sim) :: !log));
  Netsim.Sim.run sim ~until:1.0;
  (match List.rev !log with
  | [ ("a", t1); ("c", t2); ("b", t3) ] ->
    check_float "a at 0.1" 0.1 t1;
    check_float "c at 0.3" (0.3 +. 1e-17 -. 1e-17) t2;
    check_float "b at 0.5" 0.5 t3
  | _ -> Alcotest.fail "wrong event order");
  check_float "clock at horizon" 1.0 (Netsim.Sim.now sim)

let test_sim_horizon_stops_events () =
  let sim = Netsim.Sim.create () in
  let fired = ref false in
  Netsim.Sim.at sim 5.0 (fun () -> fired := true);
  Netsim.Sim.run sim ~until:1.0;
  check_bool "event beyond horizon suppressed" false !fired

(* Coded events interleave with closure events in timestamp order and
   reach the installed handler with kind and both operands intact. *)
let test_sim_coded_events_dispatch () =
  let sim = Netsim.Sim.create () in
  let log = ref [] in
  Netsim.Sim.set_handler sim (fun kind a b ->
      log := (Printf.sprintf "k%d:%d:%d" kind a b, Netsim.Sim.now sim) :: !log);
  Netsim.Sim.at_coded sim 0.5 ~kind:3 ~a:7 ~b:9;
  Netsim.Sim.at sim 0.2 (fun () -> log := ("closure", Netsim.Sim.now sim) :: !log);
  Netsim.Sim.at_coded sim 0.8 ~kind:1 ~a:0 ~b:42;
  Netsim.Sim.run sim ~until:1.0;
  let got = List.rev !log in
  Alcotest.(check (list (pair string (float 1e-9))))
    "order and payloads"
    [ ("closure", 0.2); ("k3:7:9", 0.5); ("k1:0:42", 0.8) ]
    got

(* [Sim.events] counts every executed event, closure or coded; an event
   popped past the horizon is suppressed and never counts. The counter
   accumulates across [run] calls. *)
let test_sim_event_counter () =
  let sim = Netsim.Sim.create () in
  Netsim.Sim.set_handler sim (fun _ _ _ -> ());
  Netsim.Sim.at sim 0.1 ignore;
  Netsim.Sim.at_coded sim 0.2 ~kind:1 ~a:0 ~b:0;
  Netsim.Sim.at sim 5.0 ignore;
  Netsim.Sim.run sim ~until:1.0;
  check_int "two events inside the horizon" 2 (Netsim.Sim.events sim);
  Netsim.Sim.at_coded sim 2.0 ~kind:1 ~a:0 ~b:0;
  Netsim.Sim.run sim ~until:10.0;
  check_int "counter accumulates across runs" 3 (Netsim.Sim.events sim)

(* A coded event with no handler installed is a programming error, not
   a silent no-op. *)
let test_sim_coded_event_needs_handler () =
  let sim = Netsim.Sim.create () in
  Netsim.Sim.at_coded sim 0.1 ~kind:2 ~a:1 ~b:1;
  Alcotest.check_raises "no handler"
    (Invalid_argument "Sim: coded event (kind 2) but no handler installed")
    (fun () -> Netsim.Sim.run sim ~until:1.0)

(* ------------------------------------------------------------------ *)
(* Droptail *)

let mk_pkt ?(size = 1500) seq =
  { Netsim.Packet.flow = 0; seq; size; corrupt = false }

let test_droptail_admits_until_capacity () =
  let q = Netsim.Droptail.create ~capacity:4500 in
  check_bool "p0" true (Netsim.Droptail.enqueue q (mk_pkt 0));
  check_bool "p1" true (Netsim.Droptail.enqueue q (mk_pkt 1));
  check_bool "p2" true (Netsim.Droptail.enqueue q (mk_pkt 2));
  check_bool "p3 dropped" false (Netsim.Droptail.enqueue q (mk_pkt 3));
  check_int "bytes" 4500 (Netsim.Droptail.bytes q);
  check_int "drops" 1 (Netsim.Droptail.drops q)

let test_droptail_fifo () =
  let q = Netsim.Droptail.create ~capacity:100000 in
  for i = 0 to 5 do
    ignore (Netsim.Droptail.enqueue q (mk_pkt i))
  done;
  let rec drain acc =
    match Netsim.Droptail.dequeue q with
    | Some pkt -> drain (pkt.Netsim.Packet.seq :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list int)) "fifo order" [ 0; 1; 2; 3; 4; 5 ] (drain [])

let prop_droptail_conservation =
  QCheck.Test.make ~name:"droptail: admitted = dequeued + queued" ~count:100
    QCheck.(list (int_range 100 3000))
    (fun sizes ->
      let q = Netsim.Droptail.create ~capacity:10000 in
      let admitted = ref 0 in
      List.iteri
        (fun i size ->
          if Netsim.Droptail.enqueue q (mk_pkt ~size i) then incr admitted)
        sizes;
      let dequeued = ref 0 in
      let rec drain () =
        match Netsim.Droptail.dequeue q with
        | Some _ ->
          incr dequeued;
          drain ()
        | None -> ()
      in
      let queued_before = Netsim.Droptail.length q in
      drain ();
      !admitted = !dequeued && queued_before = !dequeued)

(* ------------------------------------------------------------------ *)
(* CoDel *)

let test_codel_passes_short_sojourn () =
  let q = Netsim.Codel.create ~capacity:1_000_000 () in
  ignore (Netsim.Codel.enqueue q (mk_pkt 0) ~now:0.0);
  (match Netsim.Codel.dequeue q ~now:0.001 with
  | Some pkt -> check_int "same packet" 0 pkt.Netsim.Packet.seq
  | None -> Alcotest.fail "packet expected");
  check_int "no drops" 0 (Netsim.Codel.drops q)

let test_codel_drops_persistent_queue () =
  let q = Netsim.Codel.create ~capacity:1_000_000 () in
  (* Keep a standing queue whose sojourn stays way above target for
     well over one interval: CoDel must start dropping. *)
  let now = ref 0.0 in
  let seq = ref 0 in
  for _ = 1 to 400 do
    now := !now +. 0.005;
    incr seq;
    ignore (Netsim.Codel.enqueue q (mk_pkt !seq) ~now:!now);
    (* Service lags: dequeue every other step, so sojourn grows. *)
    if !seq mod 2 = 0 then ignore (Netsim.Codel.dequeue q ~now:!now)
  done;
  check_bool
    (Printf.sprintf "codel dropped (%d)" (Netsim.Codel.drops q))
    true
    (Netsim.Codel.drops q > 0)

let test_codel_in_network_beats_droptail_delay () =
  let run aqm =
    let link =
      { Netsim.Network.rate_fn = (fun _ -> Netsim.Units.mbps_to_bps 24.0); const_rate = None;
        grain = 0.02; buffer_bytes = Netsim.Units.kb 600; loss_p = 0.0; aqm }
    in
    let flows =
      [ { Netsim.Network.cca = Classic_cc.Cubic.make (); start_at = 0.0;
          stop_at = 12.0; rtt = 0.03 } ]
    in
    let s = Netsim.Network.run ~link ~flows ~duration:12.0 () in
    match s.Netsim.Network.flows with
    | [ f ] -> Netsim.Flow_stats.mean_rtt f.Netsim.Network.stats
    | _ -> Alcotest.fail "one flow"
  in
  let fifo_rtt = run `Fifo and codel_rtt = run `Codel in
  check_bool
    (Printf.sprintf "codel %.0fms << droptail %.0fms" (1000. *. codel_rtt)
       (1000. *. fifo_rtt))
    true
    (codel_rtt < 0.6 *. fifo_rtt)

(* ------------------------------------------------------------------ *)
(* Units *)

let test_units_roundtrip () =
  check_float "mbps roundtrip" 48.0
    (Netsim.Units.bps_to_mbps (Netsim.Units.mbps_to_bps 48.0));
  check_int "bdp" 75000
    (Netsim.Units.bdp_bytes ~rate_bps:(Netsim.Units.mbps_to_bps 12.0) ~rtt_s:0.05)

(* ------------------------------------------------------------------ *)
(* Monitor *)

let ack ~now ~rtt =
  {
    Netsim.Cca.now;
    seq = 0;
    rtt;
    acked_bytes = 1500;
    inflight = 10;
    delivered_bytes = 0;
    rate_sample = 0.0;
    newly_lost = 0;
  }

let test_monitor_throughput_and_gradient () =
  let m = Netsim.Monitor.create ~now:0.0 in
  (* RTT rises linearly at slope 0.5 (s per s). *)
  for i = 1 to 10 do
    let now = 0.01 *. float_of_int i in
    Netsim.Monitor.on_ack m (ack ~now ~rtt:(0.1 +. (0.5 *. now)))
  done;
  let snap = Netsim.Monitor.snapshot m ~now:0.1 in
  check_float "throughput" 150000.0 snap.Netsim.Monitor.throughput;
  Alcotest.(check (float 1e-6)) "gradient" 0.5 snap.Netsim.Monitor.rtt_gradient;
  check_int "acks" 10 snap.Netsim.Monitor.acked

let test_monitor_loss_rate () =
  let m = Netsim.Monitor.create ~now:0.0 in
  for i = 1 to 8 do
    Netsim.Monitor.on_ack m (ack ~now:(0.01 *. float_of_int i) ~rtt:0.1)
  done;
  Netsim.Monitor.on_timeout_loss m ~pkts:2;
  let snap = Netsim.Monitor.snapshot m ~now:0.1 in
  check_float "loss rate" 0.2 snap.Netsim.Monitor.loss_rate

(* A snapshot taken at the reset instant (zero-length interval) must
   return explicit zeros/nan, never divide by the interval. *)
let test_monitor_zero_duration () =
  let m = Netsim.Monitor.create ~now:5.0 in
  let empty = Netsim.Monitor.snapshot m ~now:5.0 in
  check_float "duration" 0.0 empty.Netsim.Monitor.duration;
  check_float "throughput" 0.0 empty.Netsim.Monitor.throughput;
  check_float "gradient" 0.0 empty.Netsim.Monitor.rtt_gradient;
  check_float "loss" 0.0 empty.Netsim.Monitor.loss_rate;
  check_bool "no-ack avg rtt is nan" true
    (Float.is_nan empty.Netsim.Monitor.avg_rtt);
  check_bool "grad se infinite" true
    (empty.Netsim.Monitor.rtt_grad_se = infinity);
  (* Same with data recorded but no time elapsed (clock went backwards
     or stood still): counts survive, rate denominators stay safe. *)
  Netsim.Monitor.on_ack m (ack ~now:5.0 ~rtt:0.08);
  Netsim.Monitor.on_timeout_loss m ~pkts:3;
  let snap = Netsim.Monitor.snapshot m ~now:4.9 in
  check_float "duration clamped" 0.0 snap.Netsim.Monitor.duration;
  check_float "throughput zero" 0.0 snap.Netsim.Monitor.throughput;
  check_float "avg rtt kept" 0.08 snap.Netsim.Monitor.avg_rtt;
  check_int "acks kept" 1 snap.Netsim.Monitor.acked;
  check_int "losses kept" 3 snap.Netsim.Monitor.lost_pkts

(* ------------------------------------------------------------------ *)
(* Windowed max (BBR's filter) *)

let prop_windowed_max_matches_bruteforce =
  QCheck.Test.make ~name:"windowed max = brute force over window" ~count:100
    QCheck.(list (pair (float_range 0.0 1.0) (float_range 0.0 100.0)))
    (fun steps ->
      let w = Netsim.Cca.Windowed_max.create ~window:1.0 in
      let now = ref 0.0 in
      let history = ref [] in
      List.for_all
        (fun (dt, v) ->
          now := !now +. dt;
          Netsim.Cca.Windowed_max.observe w ~now:!now v;
          history := (!now, v) :: !history;
          let expect =
            List.fold_left
              (fun acc (at, v') -> if !now -. at <= 1.0 then Float.max acc v' else acc)
              0.0 !history
          in
          Float.abs (Netsim.Cca.Windowed_max.get w ~now:!now -. expect) < 1e-9)
        steps)

let test_windowed_max_expires () =
  let w = Netsim.Cca.Windowed_max.create ~window:1.0 in
  Netsim.Cca.Windowed_max.observe w ~now:0.0 10.0;
  Netsim.Cca.Windowed_max.observe w ~now:0.5 5.0;
  check_float "max is 10" 10.0 (Netsim.Cca.Windowed_max.get w ~now:0.9);
  check_float "10 expired, 5 remains" 5.0 (Netsim.Cca.Windowed_max.get w ~now:1.2);
  check_float "all expired" 0.0 (Netsim.Cca.Windowed_max.get w ~now:3.0)

(* ------------------------------------------------------------------ *)
(* Integration: flows over a link *)

let run_cbr ~rate_mbps ~capacity_mbps ~duration =
  let link =
    {
      Netsim.Network.rate_fn = (fun _ -> Netsim.Units.mbps_to_bps capacity_mbps); const_rate = None;
      grain = 0.02;
      buffer_bytes = Netsim.Units.kb 150;
      loss_p = 0.0; aqm = `Fifo;
    }
  in
  let flows =
    [
      {
        Netsim.Network.cca =
          Netsim.Cca.constant_rate (Netsim.Units.mbps_to_bps rate_mbps);
        start_at = 0.0;
        stop_at = duration;
        rtt = 0.04;
      };
    ]
  in
  Netsim.Network.run ~link ~flows ~duration ()

let test_cbr_below_capacity_is_lossless () =
  let summary = run_cbr ~rate_mbps:8.0 ~capacity_mbps:24.0 ~duration:5.0 in
  (match summary.Netsim.Network.flows with
  | [ flow ] ->
    let got =
      Netsim.Units.bps_to_mbps
        (Netsim.Flow_stats.mean_throughput ~from_t:1.0 ~to_t:5.0
           flow.Netsim.Network.stats)
    in
    check_bool "throughput near 8 Mbps" true (Float.abs (got -. 8.0) < 0.5);
    check_int "no losses" 0 (Netsim.Flow_stats.total_lost_pkts flow.stats);
    let rtt = Netsim.Flow_stats.mean_rtt flow.stats in
    check_bool "rtt near propagation" true (rtt > 0.04 && rtt < 0.045)
  | _ -> Alcotest.fail "one flow expected");
  check_int "no queue drops" 0 summary.Netsim.Network.queue_drops

let test_cbr_above_capacity_loses_and_queues () =
  let summary = run_cbr ~rate_mbps:40.0 ~capacity_mbps:24.0 ~duration:5.0 in
  match summary.Netsim.Network.flows with
  | [ flow ] ->
    let util = Netsim.Network.utilization summary in
    check_bool "link saturated" true (util > 0.95);
    check_bool "significant loss" true
      (Netsim.Flow_stats.loss_rate flow.Netsim.Network.stats > 0.2);
    let rtt = Netsim.Flow_stats.mean_rtt flow.stats in
    (* 150 KB of backlog at 24 Mbps adds ~50 ms of queueing. *)
    check_bool "rtt inflated by full buffer" true (rtt > 0.07)
  | _ -> Alcotest.fail "one flow expected"

let test_stochastic_loss_rate_applied () =
  let link =
    {
      Netsim.Network.rate_fn = (fun _ -> Netsim.Units.mbps_to_bps 50.0); const_rate = None;
      grain = 0.02;
      buffer_bytes = Netsim.Units.mb 2;
      loss_p = 0.05; aqm = `Fifo;
    }
  in
  let flows =
    [
      {
        Netsim.Network.cca = Netsim.Cca.constant_rate (Netsim.Units.mbps_to_bps 10.0);
        start_at = 0.0;
        stop_at = 10.0;
        rtt = 0.04;
      };
    ]
  in
  let summary = Netsim.Network.run ~seed:5 ~link ~flows ~duration:10.0 () in
  match summary.Netsim.Network.flows with
  | [ flow ] ->
    let loss = Netsim.Flow_stats.loss_rate flow.Netsim.Network.stats in
    check_bool "observed loss near 5%" true (loss > 0.03 && loss < 0.07)
  | _ -> Alcotest.fail "one flow expected"

let prop_packet_conservation =
  QCheck.Test.make ~name:"sent = acked + lost (+tail in flight)" ~count:20
    QCheck.(pair (int_range 1 40) (int_range 0 1000))
    (fun (rate_mbps, seed) ->
      let link =
        {
          Netsim.Network.rate_fn = (fun _ -> Netsim.Units.mbps_to_bps 12.0); const_rate = None;
          grain = 0.02;
          buffer_bytes = Netsim.Units.kb 75;
          loss_p = 0.01; aqm = `Fifo;
        }
      in
      let flows =
        [
          {
            Netsim.Network.cca =
              Netsim.Cca.constant_rate
                (Netsim.Units.mbps_to_bps (float_of_int rate_mbps));
            start_at = 0.0;
            stop_at = 3.0;
            rtt = 0.03;
          };
        ]
      in
      let summary = Netsim.Network.run ~seed ~link ~flows ~duration:4.0 () in
      match summary.Netsim.Network.flows with
      | [ flow ] ->
        let stats = flow.Netsim.Network.stats in
        let sent = Netsim.Flow_stats.total_sent_bytes stats / 1500 in
        let acked = Netsim.Flow_stats.total_acked_pkts stats in
        let lost = Netsim.Flow_stats.total_lost_pkts stats in
        (* After a second of drain, at most a handful of tail packets can
           still be unresolved (never acked, never declared lost). *)
        sent >= acked + lost && sent - (acked + lost) < 20
      | _ -> false)

let test_two_flows_share_link () =
  let link =
    {
      Netsim.Network.rate_fn = (fun _ -> Netsim.Units.mbps_to_bps 20.0); const_rate = None;
      grain = 0.02;
      buffer_bytes = Netsim.Units.kb 150;
      loss_p = 0.0; aqm = `Fifo;
    }
  in
  let mk () =
    {
      Netsim.Network.cca = Netsim.Cca.constant_rate (Netsim.Units.mbps_to_bps 15.0);
      start_at = 0.0;
      stop_at = 6.0;
      rtt = 0.04;
    }
  in
  let summary = Netsim.Network.run ~link ~flows:[ mk (); mk () ] ~duration:6.0 () in
  match summary.Netsim.Network.flows with
  | [ a; b ] ->
    let thr flow =
      Netsim.Flow_stats.mean_throughput ~from_t:1.0 ~to_t:6.0
        flow.Netsim.Network.stats
    in
    let ta = thr a and tb = thr b in
    (* Identical CBR flows through one FIFO get equal shares. *)
    check_bool "symmetric shares" true
      (Float.abs (ta -. tb) /. Float.max ta tb < 0.05);
    check_bool "link saturated" true (Netsim.Network.utilization summary > 0.95)
  | _ -> Alcotest.fail "two flows expected"

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "netsim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "distinct seeds" `Quick test_rng_distinct_seeds;
          Alcotest.test_case "split_key stable" `Quick test_rng_split_key_stable;
          Alcotest.test_case "split_key distinct" `Quick test_rng_split_key_distinct;
        ]
        @ qsuite [ prop_rng_range; prop_rng_uniform_bounds ] );
      ( "event_heap",
        [
          Alcotest.test_case "orders events" `Quick test_heap_orders_events;
          Alcotest.test_case "fifo on ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "grows" `Quick test_heap_grows;
          Alcotest.test_case "random pop order" `Quick test_heap_random_pop_order;
          Alcotest.test_case "mixed coded/closure model" `Quick test_heap_mixed_model;
          Alcotest.test_case "closure slots bounded" `Quick
            test_heap_closure_slots_bounded;
        ]
        @ qsuite [ prop_heap_sorted ] );
      ( "sim",
        [
          Alcotest.test_case "runs in order" `Quick test_sim_runs_in_order;
          Alcotest.test_case "horizon" `Quick test_sim_horizon_stops_events;
          Alcotest.test_case "coded events dispatch" `Quick
            test_sim_coded_events_dispatch;
          Alcotest.test_case "event counter" `Quick test_sim_event_counter;
          Alcotest.test_case "coded event needs handler" `Quick
            test_sim_coded_event_needs_handler;
        ] );
      ( "droptail",
        [
          Alcotest.test_case "capacity" `Quick test_droptail_admits_until_capacity;
          Alcotest.test_case "fifo" `Quick test_droptail_fifo;
        ]
        @ qsuite [ prop_droptail_conservation ] );
      ("units", [ Alcotest.test_case "roundtrip" `Quick test_units_roundtrip ]);
      ( "codel",
        [
          Alcotest.test_case "short sojourn passes" `Quick test_codel_passes_short_sojourn;
          Alcotest.test_case "persistent queue drops" `Quick test_codel_drops_persistent_queue;
          Alcotest.test_case "beats droptail delay" `Slow
            test_codel_in_network_beats_droptail_delay;
        ] );
      ( "windowed_max",
        [ Alcotest.test_case "expires" `Quick test_windowed_max_expires ]
        @ qsuite [ prop_windowed_max_matches_bruteforce ] );
      ( "monitor",
        [
          Alcotest.test_case "throughput+gradient" `Quick
            test_monitor_throughput_and_gradient;
          Alcotest.test_case "loss rate" `Quick test_monitor_loss_rate;
          Alcotest.test_case "zero-length interval" `Quick
            test_monitor_zero_duration;
        ] );
      ( "integration",
        [
          Alcotest.test_case "cbr below capacity" `Quick
            test_cbr_below_capacity_is_lossless;
          Alcotest.test_case "cbr above capacity" `Quick
            test_cbr_above_capacity_loses_and_queues;
          Alcotest.test_case "stochastic loss" `Quick
            test_stochastic_loss_rate_applied;
          Alcotest.test_case "two flows share" `Quick test_two_flows_share_link;
        ]
        @ qsuite [ prop_packet_conservation ] );
    ]
