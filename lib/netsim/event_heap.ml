(* 4-ary min-heap of timed events.

   Events firing at equal times are delivered in insertion order, which a
   sequence number enforces; this keeps simulations deterministic.
   Sequence numbers are unique, so the (time, seq) key is a strict total
   order and the pop sequence does not depend on the heap's shape.

   This is the simulator's hottest structure (every packet send, ACK and
   timer is one push/pop), so it is laid out struct-of-arrays: the
   timestamps live in a flat [float array] (unboxed loads and stores),
   the tie-break sequence numbers and the int-coded event payloads in
   plain int arrays. An entry is either a *closure* event (kind 0, the
   historical API) or a *coded* event (kind > 0) carrying two int
   operands -- typically a flow handle and a version or sequence number
   -- dispatched by [Sim.run] through a single match, so the many-flow
   hot path schedules no closures at all.

   Closures never move with the heap. They live in a free-listed side
   table; a kind-0 entry's [a] operand is its slot there. [push] takes a
   slot, [pop_into] reads the closure back and frees the slot. Sifting
   therefore moves only unboxed ints and floats: no store on the sift
   path goes through the write barrier ([caml_modify]).

   The heap is 4-ary: half the depth of a binary heap, and the four
   children of a node are adjacent in each array.

   Pushes go through a one-slot staging cell filled by [@inline]
   wrappers, so the timestamp never crosses a function boundary as a
   (boxed) float argument; pops land in a scratch slot read back through
   [@inline] accessors. With spans disabled, neither operation touches
   the minor heap. *)

type entry = { time : float; seq : int; action : unit -> unit }

let no_action = ignore

type t = {
  (* parallel heap slots 0 .. size-1 *)
  mutable times : float array;
  mutable seqs : int array;
  mutable kinds : int array;
  mutable pa : int array;  (* coded operand a; closure slot for kind 0 *)
  mutable pb : int array;  (* coded operand b *)
  mutable size : int;
  mutable next_seq : int;
  (* closure side table: slots 0 .. slots-1 handed out, [free] holds the
     [n_free] returned ones (reused last-in first-out) *)
  mutable closures : (unit -> unit) array;
  mutable free : int array;
  mutable n_free : int;
  mutable slots : int;
  (* staging cell for the entry being pushed (or sifted down) *)
  st_time : float array;  (* one cell; flat store keeps the time unboxed *)
  mutable st_kind : int;
  mutable st_a : int;
  mutable st_b : int;
  (* scratch slot holding the most recently popped entry *)
  sc_time : float array;
  mutable sc_seq : int;
  mutable sc_kind : int;
  mutable sc_a : int;
  mutable sc_b : int;
  mutable sc_action : unit -> unit;  (* last popped closure (kind 0) *)
}

let create () =
  {
    times = Array.make 256 0.0;
    seqs = Array.make 256 0;
    kinds = Array.make 256 0;
    pa = Array.make 256 0;
    pb = Array.make 256 0;
    size = 0;
    next_seq = 0;
    closures = Array.make 64 no_action;
    free = Array.make 64 0;
    n_free = 0;
    slots = 0;
    st_time = [| 0.0 |];
    st_kind = 0;
    st_a = 0;
    st_b = 0;
    sc_time = [| 0.0 |];
    sc_seq = 0;
    sc_kind = 0;
    sc_a = 0;
    sc_b = 0;
    sc_action = no_action;
  }

let size t = t.size

let is_empty t = t.size = 0

let closure_slots t = t.slots

(* [cap] doubled until it holds [n]. *)
let doubled_to cap n =
  let c = ref cap in
  while !c < n do
    c := 2 * !c
  done;
  !c

let resize_heap t ncap =
  let blit_f a =
    let b = Array.make ncap 0.0 in
    Array.blit a 0 b 0 t.size;
    b
  in
  let blit_i a =
    let b = Array.make ncap 0 in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.times <- blit_f t.times;
  t.seqs <- blit_i t.seqs;
  t.kinds <- blit_i t.kinds;
  t.pa <- blit_i t.pa;
  t.pb <- blit_i t.pb

let resize_closures t ncap =
  let c = Array.make ncap no_action in
  Array.blit t.closures 0 c 0 t.slots;
  let f = Array.make ncap 0 in
  Array.blit t.free 0 f 0 t.n_free;
  t.closures <- c;
  t.free <- f

let reserve t n =
  let cap = Array.length t.times in
  if n > cap then resize_heap t (doubled_to cap n);
  let ccap = Array.length t.closures in
  if n > ccap then resize_closures t (doubled_to ccap n)

(* Park [action] in the side table; returns its slot. *)
let take_slot t action =
  let slot =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      t.free.(t.n_free)
    end
    else begin
      if t.slots = Array.length t.closures then resize_closures t (2 * t.slots);
      let s = t.slots in
      t.slots <- s + 1;
      s
    end
  in
  t.closures.(slot) <- action;
  slot

(* The sift paths only touch slots below [size] (or at [size] while
   pushing), and every heap array is at least that long, so they skip
   bounds checks. The annotations keep loads and comparisons
   monomorphic (unboxed floats). *)
let[@inline] fget (a : float array) i = Array.unsafe_get a i
let[@inline] fset (a : float array) i (v : float) = Array.unsafe_set a i v
let[@inline] iget (a : int array) i = Array.unsafe_get a i
let[@inline] iset (a : int array) i (v : int) = Array.unsafe_set a i v

(* Copy slot [src] over slot [dst]. *)
let[@inline] copy_slot t src dst =
  fset t.times dst (fget t.times src);
  iset t.seqs dst (iget t.seqs src);
  iset t.kinds dst (iget t.kinds src);
  iset t.pa dst (iget t.pa src);
  iset t.pb dst (iget t.pb src)

(* Write the staged entry (sequence number [seq]) into slot [i]. *)
let[@inline] write_staged t i seq =
  fset t.times i t.st_time.(0);
  iset t.seqs i seq;
  iset t.kinds i t.st_kind;
  iset t.pa i t.st_a;
  iset t.pb i t.st_b

(* Move the staged entry up from hole [i] until its parent is not later. *)
let rec sift_up t seq i =
  if i = 0 then write_staged t 0 seq
  else begin
    let p = (i - 1) / 4 in
    let st = t.st_time.(0) in
    let pt = fget t.times p in
    if st < pt || (st = pt && seq < iget t.seqs p) then begin
      copy_slot t p i;
      sift_up t seq p
    end
    else write_staged t i seq
  end

let push_staged_impl t =
  if t.size = Array.length t.times then resize_heap t (2 * t.size);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  sift_up t seq t.size;
  t.size <- t.size + 1

let span_push = Obs.Span.probe "heap.push"

(* Span probes on the hottest structure are gated on [Span.enabled] so
   the disabled path builds no closure: one atomic load + branch, no
   allocation. *)
let push_staged t =
  if Obs.Span.enabled () then Obs.Span.timed span_push push_staged_impl t
  else push_staged_impl t

let[@inline] push t ~time action =
  let slot = take_slot t action in
  t.st_time.(0) <- time;
  t.st_kind <- 0;
  t.st_a <- slot;
  t.st_b <- 0;
  push_staged t

let[@inline] push_coded t ~time ~kind ~a ~b =
  t.st_time.(0) <- time;
  t.st_kind <- kind;
  t.st_a <- a;
  t.st_b <- b;
  push_staged t

let[@inline] min_time t = if t.size = 0 then infinity else fget t.times 0

(* Earliest of the children [c .. last] of one node. *)
let rec min_child times seqs c last best =
  if c > last then best
  else
    let tc = fget times c and tb = fget times best in
    if tc < tb || (tc = tb && iget seqs c < iget seqs best) then
      min_child times seqs (c + 1) last c
    else min_child times seqs (c + 1) last best

(* Move the staged entry down from hole [i], pulling the earliest child
   up. *)
let rec sift_down t seq i =
  let c0 = (4 * i) + 1 in
  let n = t.size in
  if c0 >= n then write_staged t i seq
  else begin
    let last = if c0 + 3 < n then c0 + 3 else n - 1 in
    let c = min_child t.times t.seqs (c0 + 1) last c0 in
    let st = t.st_time.(0) in
    let ct = fget t.times c in
    if ct < st || (ct = st && iget t.seqs c < seq) then begin
      copy_slot t c i;
      sift_down t seq c
    end
    else write_staged t i seq
  end

exception Empty

(* Pop the root into the scratch slot; a closure entry's slot goes back
   to the free list. No allocation. *)
let pop_into_impl t =
  if t.size = 0 then raise Empty;
  t.sc_time.(0) <- t.times.(0);
  t.sc_seq <- t.seqs.(0);
  let kind = t.kinds.(0) in
  let a = t.pa.(0) in
  t.sc_kind <- kind;
  t.sc_a <- a;
  t.sc_b <- t.pb.(0);
  if kind = 0 then begin
    t.sc_action <- t.closures.(a);
    t.closures.(a) <- no_action;
    t.free.(t.n_free) <- a;
    t.n_free <- t.n_free + 1
  end;
  t.size <- t.size - 1;
  let n = t.size in
  if n > 0 then begin
    (* Stage the last entry and sift it down from the root. *)
    t.st_time.(0) <- t.times.(n);
    t.st_kind <- t.kinds.(n);
    t.st_a <- t.pa.(n);
    t.st_b <- t.pb.(n);
    sift_down t t.seqs.(n) 0
  end

let span_pop = Obs.Span.probe "heap.pop"

let pop_into t =
  if Obs.Span.enabled () then Obs.Span.timed span_pop pop_into_impl t
  else pop_into_impl t

let[@inline] scratch_time t = t.sc_time.(0)
let[@inline] scratch_seq t = t.sc_seq
let[@inline] scratch_kind t = t.sc_kind
let[@inline] scratch_a t = t.sc_a
let[@inline] scratch_b t = t.sc_b
let[@inline] scratch_action t = t.sc_action

(* Compatibility pop for cold callers and tests: materialise the scratch
   slot as a record (this path allocates; the event loop uses
   [pop_into] + the scratch accessors instead). *)
let pop_entry_exn t =
  pop_into t;
  let action = if t.sc_kind = 0 then t.sc_action else no_action in
  { time = t.sc_time.(0); seq = t.sc_seq; action }

let pop t =
  if t.size = 0 then None
  else
    let e = pop_entry_exn t in
    Some (e.time, e.action)
