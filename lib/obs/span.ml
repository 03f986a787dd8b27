(* Hierarchical host-time spans: a calling-context tree per lane.

   Each [run] opens a lane context holding a tree of aggregation nodes
   (one node per distinct probe per call path) and an explicit open-span
   stack stored in growable parallel arrays, so entering and leaving a
   span allocates nothing once the node exists. Host measurements are
   bechamel's monotonic clock (ns, noalloc) and GC word counts; both are
   recorded as deltas on exit.

   The profiler must not count itself. Minor words are read through the
   unboxed, non-allocating [Gc.minor_words], last thing on entry and
   first thing on exit, so a span's own window holds only its body.
   Major words need [Gc.counters], which allocates its result tuple on
   the minor heap (short-lived, so it reaches the major count only if a
   minor collection catches it live). That allocation, and any other
   bookkeeping (a new tree node), happens inside the *parent's* window:
   each lane measures it and keeps a running total ([own]), and a span
   subtracts the growth of that total over its window. With spans on, a
   body that allocates nothing reports 0 minor words at every depth.

   Determinism: which *host numbers* a span records depends on the
   machine and scheduling, so exports split in two — [structure]
   (names, nesting, counts; pool-size deterministic, tested in
   test_exec) and [lanes_json]/[to_json] (adds durations + GC words;
   for human and perf_report consumption only). *)

(* ---- global probe table ---- *)

type probe = int

let table_lock = Mutex.create ()
let names : string array ref = ref (Array.make 16 "")
let by_name : (string, int) Hashtbl.t = Hashtbl.create 16
let n_probes = ref 0

let probe name =
  Mutex.lock table_lock;
  let id =
    match Hashtbl.find_opt by_name name with
    | Some id -> id
    | None ->
      if !n_probes = Array.length !names then begin
        let bigger = Array.make (2 * !n_probes) "" in
        Array.blit !names 0 bigger 0 !n_probes;
        names := bigger
      end;
      let id = !n_probes in
      !names.(id) <- name;
      Hashtbl.add by_name name id;
      n_probes := id + 1;
      id
  in
  Mutex.unlock table_lock;
  id

let probe_name id = !names.(id)

(* ---- the calling-context tree ---- *)

type node = {
  nprobe : int;
  mutable count : int;
  mutable total_ns : int;
  mutable minor_w : int;  (* minor words allocated inside the span *)
  mutable major_w : int;
  mutable kids : node list;  (* newest-first; export reverses *)
}

let fresh_node p = { nprobe = p; count = 0; total_ns = 0; minor_w = 0; major_w = 0; kids = [] }

let no_node = fresh_node (-1)

(* [List.find_opt] would allocate its predicate closure and the option. *)
let rec find_kid p = function
  | [] -> no_node
  | n :: rest -> if n.nprobe = p then n else find_kid p rest

type lane_ctx = {
  lane : int;
  root : node;  (* sentinel; its kids are the top-level spans *)
  mutable depth : int;
  mutable frames : node array;
  mutable t0 : int array;  (* monotonic ns at entry *)
  mutable minor0 : float array;
  mutable major0 : float array;
  mutable own0 : int array;  (* [own] at entry *)
  mutable own : int;  (* minor words the profiler itself allocated *)
}

let fresh_lane lane =
  {
    lane;
    root = fresh_node (-1);
    depth = 0;
    frames = Array.make 16 (fresh_node (-1));
    t0 = Array.make 16 0;
    minor0 = Array.make 16 0.0;
    major0 = Array.make 16 0.0;
    own0 = Array.make 16 0;
    own = 0;
  }

type t = { lock : Mutex.t; mutable lanes : lane_ctx list (* newest first *) }

let create () = { lock = Mutex.create (); lanes = [] }

(* ---- the ambient per-domain recorder ---- *)

type ctx = { ctx_lane : lane_ctx }

let ctx_key : ctx option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)
let n_active = Atomic.make 0

let[@inline] enabled () = Atomic.get n_active > 0

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let grow_stack c =
  let cap = Array.length c.frames in
  let bigger_f = Array.make (2 * cap) c.root in
  let bigger_t = Array.make (2 * cap) 0 in
  let bigger_mi = Array.make (2 * cap) 0.0 in
  let bigger_ma = Array.make (2 * cap) 0.0 in
  let bigger_o = Array.make (2 * cap) 0 in
  Array.blit c.frames 0 bigger_f 0 cap;
  Array.blit c.t0 0 bigger_t 0 cap;
  Array.blit c.minor0 0 bigger_mi 0 cap;
  Array.blit c.major0 0 bigger_ma 0 cap;
  Array.blit c.own0 0 bigger_o 0 cap;
  c.frames <- bigger_f;
  c.t0 <- bigger_t;
  c.minor0 <- bigger_mi;
  c.major0 <- bigger_ma;
  c.own0 <- bigger_o

let[@inline] words_between w0 w1 = int_of_float (w1 -. w0)

let enter c p =
  let w0 = Gc.minor_words () in
  let parent = if c.depth = 0 then c.root else c.frames.(c.depth - 1) in
  let node =
    let n = find_kid p parent.kids in
    if n != no_node then n
    else begin
      let n = fresh_node p in
      parent.kids <- n :: parent.kids;
      n
    end
  in
  node.count <- node.count + 1;
  if c.depth = Array.length c.frames then grow_stack c;
  (* [Gc.counters], not [Gc.quick_stat]: on OCaml 5 the latter only
     reflects this domain's allocations after a GC slice, so deltas
     over short spans would read zero. *)
  let _, _, major = Gc.counters () in
  let d = c.depth in
  c.frames.(d) <- node;
  c.major0.(d) <- major;
  c.depth <- d + 1;
  let w1 = Gc.minor_words () in
  c.own <- c.own + words_between w0 w1;
  c.own0.(d) <- c.own;
  c.minor0.(d) <- w1;
  c.t0.(d) <- now_ns ()

let leave c =
  let dt = now_ns () in
  let w0 = Gc.minor_words () in
  let d = c.depth - 1 in
  c.depth <- d;
  let node = c.frames.(d) in
  node.total_ns <- node.total_ns + (dt - c.t0.(d));
  node.minor_w <-
    node.minor_w + words_between c.minor0.(d) w0 - (c.own - c.own0.(d));
  let _, _, major = Gc.counters () in
  node.major_w <- node.major_w + words_between c.major0.(d) major;
  c.own <- c.own + words_between w0 (Gc.minor_words ())

(* No [Fun.protect]: its closures would be allocated inside the span.
   Taking [f]'s argument separately lets hot callers pass a top-level
   function and its argument without building a closure. *)
let timed p f x =
  if Atomic.get n_active = 0 then f x
  else
    match !(Domain.DLS.get ctx_key) with
    | None -> f x
    | Some c -> (
      let lc = c.ctx_lane in
      enter lc p;
      match f x with
      | v ->
        leave lc;
        v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        leave lc;
        Printexc.raise_with_backtrace e bt)

let run t ?(lane = 0) f =
  let lc = fresh_lane lane in
  Mutex.lock t.lock;
  t.lanes <- lc :: t.lanes;
  Mutex.unlock t.lock;
  let cell = Domain.DLS.get ctx_key in
  let saved = !cell in
  cell := Some { ctx_lane = lc };
  Atomic.incr n_active;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr n_active;
      cell := saved)
    f

(* Mirror of [Trace.unobserved]: new spans under [f] are dropped; the
   already-open spans keep accumulating time (durations are outside the
   determinism digest, structure stays fixed). *)
let unobserved f =
  let cell = Domain.DLS.get ctx_key in
  match !cell with
  | None -> f ()
  | Some _ as saved ->
    cell := None;
    Atomic.decr n_active;
    Fun.protect
      ~finally:(fun () ->
        Atomic.incr n_active;
        cell := saved)
      f

(* ---- export ---- *)

(* Lanes in ascending lane order; contexts sharing a lane id (several
   [run]s with the same lane) are merged by probe along matching call
   paths, preserving the first context's child order. *)

let rec merge_node ~into src =
  into.count <- into.count + src.count;
  into.total_ns <- into.total_ns + src.total_ns;
  into.minor_w <- into.minor_w + src.minor_w;
  into.major_w <- into.major_w + src.major_w;
  List.iter
    (fun skid ->
      match List.find_opt (fun k -> k.nprobe = skid.nprobe) into.kids with
      | Some dkid -> merge_node ~into:dkid skid
      | None -> into.kids <- skid :: into.kids)
    (List.rev src.kids)

let merged_lanes t =
  Mutex.lock t.lock;
  let lanes = List.rev t.lanes in
  Mutex.unlock t.lock;
  let sorted = List.stable_sort (fun a b -> compare a.lane b.lane) lanes in
  let out = ref [] in
  List.iter
    (fun lc ->
      match List.find_opt (fun (id, _) -> id = lc.lane) !out with
      | Some (_, root) -> merge_node ~into:root lc.root
      | None ->
        (* Copy so merging never mutates live recorder state. *)
        let rec copy n =
          {
            nprobe = n.nprobe;
            count = n.count;
            total_ns = n.total_ns;
            minor_w = n.minor_w;
            major_w = n.major_w;
            kids = List.map copy n.kids;
          }
        in
        out := !out @ [ (lc.lane, copy lc.root) ])
    sorted;
  !out

let ns_to_s ns = float_of_int ns /. 1e9

let rec node_json n =
  let kids = List.rev n.kids in
  let children_total = List.fold_left (fun a k -> a + k.total_ns) 0 kids in
  let self_ns = max 0 (n.total_ns - children_total) in
  Json.Obj
    [
      ("name", Json.Str (probe_name n.nprobe));
      ("count", Json.Num (float_of_int n.count));
      ("total_s", Json.Num (ns_to_s n.total_ns));
      ("self_s", Json.Num (ns_to_s self_ns));
      ("minor_words", Json.Num (float_of_int n.minor_w));
      ("major_words", Json.Num (float_of_int n.major_w));
      ("children", Json.List (List.map node_json kids));
    ]

let lanes_json t =
  List.map (fun (lane, root) -> (lane, Json.List (List.map node_json (List.rev root.kids)))) (merged_lanes t)

let to_json t =
  Json.Obj
    [
      ( "lanes",
        Json.List
          (List.map
             (fun (lane, spans) ->
               Json.Obj [ ("lane", Json.Num (float_of_int lane)); ("spans", spans) ])
             (lanes_json t)) );
    ]

let structure t =
  let b = Buffer.create 512 in
  let rec walk indent n =
    Buffer.add_string b
      (Printf.sprintf "%s%s x%d\n" (String.make indent ' ') (probe_name n.nprobe) n.count);
    List.iter (walk (indent + 2)) (List.rev n.kids)
  in
  List.iter
    (fun (lane, root) ->
      Buffer.add_string b (Printf.sprintf "lane %d\n" lane);
      List.iter (walk 2) (List.rev root.kids))
    (merged_lanes t);
  Buffer.contents b
