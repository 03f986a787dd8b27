(* In-memory span log for the traced run. Spans are recorded from the
   benchmark's side of each library call; nothing inside the library
   is instrumented.

   A span covers one call, except for CCA callbacks: those run
   hundreds of thousands of times per scenario, so each run folds them
   into one aggregate span per callback (the call count and the summed
   busy time), which keeps memory bounded. Aggregates of one run never
   overlap each other, so their busy times add. *)

type span = {
  id : int;
  parent : int;  (* 0 = root *)
  name : string;
  run : int;  (* scenario run index, -1 for set-up work *)
  t0 : float;
  t1 : float;
  agg : bool;  (* an aggregate of [calls] callbacks *)
  calls : int;
  busy : float;  (* = t1 - t0 for a single call *)
}

type t = { lock : Mutex.t; next : int Atomic.t; mutable spans : span list }

let create () = { lock = Mutex.create (); next = Atomic.make 1; spans = [] }

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let add t s =
  Mutex.lock t.lock;
  t.spans <- s :: t.spans;
  Mutex.unlock t.lock

let fresh_id t = Atomic.fetch_and_add t.next 1

(* [with_span t ~parent ~name ~run f] times [f id], where [id] is the
   new span's identifier for its children. *)
let with_span t ?(parent = 0) ?(run = -1) name f =
  let id = fresh_id t in
  let t0 = now () in
  let finish () =
    let t1 = now () in
    add t { id; parent; name; run; t0; t1; agg = false; calls = 1; busy = t1 -. t0 }
  in
  match f id with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let aggregate t ~parent ~run ~t0 ~t1 name ~calls ~busy =
  add t { id = fresh_id t; parent; name; run; t0; t1; agg = true; calls; busy }

let all t =
  Mutex.lock t.lock;
  let s = List.rev t.spans in
  Mutex.unlock t.lock;
  s

let total_busy spans = List.fold_left (fun a s -> a +. s.busy) 0.0 spans
let total_calls spans = List.fold_left (fun a s -> a + s.calls) 0 spans

(* Self time of [s]: single-call children are unioned as intervals,
   aggregate children subtract their busy time. *)
let self_time all s =
  let kids = List.filter (fun c -> c.parent = s.id) all in
  let aggs, singles = List.partition (fun c -> c.agg) kids in
  Stats.self_time ~t0:s.t0 ~t1:s.t1 (List.map (fun c -> (c.t0, c.t1)) singles)
  -. total_busy aggs

let to_json s =
  Printf.sprintf
    {|{"id":%d,"parent":%d,"name":%S,"run":%d,"t0":%.9f,"t1":%.9f,"agg":%b,"calls":%d,"busy":%.9f}|}
    s.id s.parent s.name s.run s.t0 s.t1 s.agg s.calls s.busy

let write t path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          output_string oc (to_json s);
          output_char oc '\n')
        (all t))
