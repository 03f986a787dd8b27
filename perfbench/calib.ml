(* Host-speed calibration. The host this benchmark runs on is shared:
   its speed drifts by tens of percent over seconds and minutes, which
   swamps any change to the program in raw wall time. So set-up and
   every measured run on one domain are bracketed by a fixed unit of
   simulator-like work, and their wall time is rescaled by how long
   that unit took beside them (see [speed]).

   The kernel is a self-contained discrete-event loop: a binary heap of
   integer event times with a flow payload, a pseudo-random delay per
   event, a ring of float running values, and per event one read at a
   random place in a 16 MB table. The heap and ring stay in the core's
   caches; the table reads go to the shared cache and memory. The
   simulator does both, and a shared host slows the two differently
   (churn's large arena suffers most from neighbours' memory traffic),
   so the kernel needs both to track the host.

   It uses nothing from the library, so no change to the program under
   test changes it. It allocates next to nothing on the OCaml heap: its
   arrays are made once per domain and the table lives outside the heap
   (a Bigarray), so it neither slows down with nor changes the pacing
   of the program's GC. *)

let heap_cap = 1024
let table_words = 1 lsl 21

(* Made by [prepare], before anything is timed. *)
let table =
  lazy
    (let t = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout table_words in
     for i = 0 to table_words - 1 do
       Bigarray.Array1.unsafe_set t i (float_of_int (i land 1023) *. 1e-9)
     done;
     t)

(* Written through before a kernel run that follows no program work
   (see [cold_time]). *)
let scrub_words = 1 lsl 22

let scrub_buffer =
  lazy
    (let b = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout scrub_words in
     Bigarray.Array1.fill b 0.0;
     b)

let prepare () =
  ignore (Lazy.force table);
  ignore (Lazy.force scrub_buffer)

(* The table's and the scrub buffer's share of the process's resident
   memory, in MB. *)
let resident_mb = float_of_int ((table_words + scrub_words) * 8) /. 1048576.0

let scratch =
  Domain.DLS.new_key (fun () ->
      (Array.make heap_cap 0, Array.make heap_cap 0, Array.make 256 1.0))

let kernel ~flows ~n =
  let key, flow, ring = Domain.DLS.get scratch in
  let table = Lazy.force table in
  let mask = table_words - 1 in
  Array.fill ring 0 256 1.0;
  let size = ref 0 in
  let push at f =
    let i = ref !size in
    incr size;
    while !i > 0 && key.((!i - 1) / 2) > at do
      let p = (!i - 1) / 2 in
      key.(!i) <- key.(p);
      flow.(!i) <- flow.(p);
      i := p
    done;
    key.(!i) <- at;
    flow.(!i) <- f
  in
  (* Removes the minimum; the caller has read it from slot 0. *)
  let pop () =
    decr size;
    let at = key.(!size) and f = flow.(!size) in
    let i = ref 0 and go = ref true in
    while !go do
      let l = (2 * !i) + 1 in
      if l >= !size then go := false
      else begin
        let c = if l + 1 < !size && key.(l + 1) < key.(l) then l + 1 else l in
        if key.(c) < at then begin
          key.(!i) <- key.(c);
          flow.(!i) <- flow.(c);
          i := c
        end
        else go := false
      end
    done;
    key.(!i) <- at;
    flow.(!i) <- f
  in
  let x = ref 0x2545F491 in
  let rand () =
    x := !x lxor ((!x lsl 13) land 0x3FFFFFFF);
    x := !x lxor (!x lsr 17);
    x := !x lxor ((!x lsl 5) land 0x3FFFFFFF);
    !x land 0xFFFF
  in
  for f = 0 to flows - 1 do
    push (rand ()) f
  done;
  for k = 1 to n do
    let at = key.(0) and f = flow.(0) in
    pop ();
    let d = 100 + rand () in
    let j = (k + f) land 255 in
    let far = Bigarray.Array1.unsafe_get table (((at * 2654435761) lxor k) land mask) in
    ring.(j) <- (ring.(j) *. 0.999) +. (float_of_int d *. 1e-6) +. far;
    push (at + d) f
  done;
  Array.fold_left ( +. ) 0.0 ring

(* Kernel seconds on this host now: one kernel run of about 6 ms. *)
let time () =
  let t0 = Spans.now () in
  ignore (Sys.opaque_identity (kernel ~flows:512 ~n:40_000));
  Spans.now () -. t0

(* Kernel seconds as after program work, when none came just before:
   one write per cache line through a 32 MB buffer first pushes the
   kernel's data out of the caches, as a scenario run does. A second
   kernel run straight after a first would find its data cached and
   gauge the host differently. *)
let cold_time () =
  let b = Lazy.force scrub_buffer in
  for i = 0 to (scrub_words / 8) - 1 do
    Bigarray.Array1.unsafe_set b (i * 8) (float_of_int i)
  done;
  time ()

(* The kernel's median time on the reference host, a 2-vCPU shared
   Xeon VM at 2.1 GHz, run as bench.exe runs it: with its data out of
   the caches. *)
let reference = 0.0060

(* The host's speed relative to the reference host, from a kernel time
   [cal]. A run that took [wall] seconds counts as [wall *. speed]
   seconds: what it would have taken there. *)
let speed cal = reference /. cal
