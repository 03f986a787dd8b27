(** 4-ary min-heap of timed events with FIFO tie-breaking.

    Events scheduled for the same instant fire in insertion order, which
    keeps simulations deterministic: the (time, insertion sequence) key
    is a strict total order, so the pop sequence is independent of the
    heap's internal layout.

    The heap is struct-of-arrays and supports two entry shapes: closure
    events (the historical API, kind 0) and {e coded} events — an int
    [kind > 0] plus two int operands — which the simulator dispatches
    through a single match without scheduling any closure. Closures are
    kept in a free-listed side table outside the heap arrays (a kind-0
    entry's [a] operand is its slot), so sifting moves only unboxed
    ints and floats and never hits the GC write barrier. The hot
    push/pop paths ([push], [push_coded], [pop_into]) allocate nothing
    when span profiling is disabled. *)

type entry = private { time : float; seq : int; action : unit -> unit }

type t

val create : unit -> t

(** Number of pending events. *)
val size : t -> int

val is_empty : t -> bool

(** Pre-size the heap and the closure side table to hold at least [n]
    entries each (benchmarks use this to keep growth out of measured
    windows). *)
val reserve : t -> int -> unit

(** [push t ~time action] schedules closure [action] at [time]. *)
val push : t -> time:float -> (unit -> unit) -> unit

(** [push_coded t ~time ~kind ~a ~b] schedules a coded event; [kind]
    must be positive (0 is reserved for closure entries). Allocation-
    free. *)
val push_coded : t -> time:float -> kind:int -> a:int -> b:int -> unit

(** Earliest scheduled time; [infinity] when empty. Unboxed, so the
    event loop can look before it pops. *)
val min_time : t -> float

exception Empty

(** Remove the earliest event into the scratch slot (read it back with
    the [scratch_*] accessors before the next pop); raises [Empty] on an
    empty heap. Allocation-free. *)
val pop_into : t -> unit

val scratch_time : t -> float
val scratch_seq : t -> int
val scratch_kind : t -> int
val scratch_a : t -> int
val scratch_b : t -> int

(** The popped closure. Meaningful only when [scratch_kind] is 0: a
    coded pop leaves it holding the last closure popped before. *)
val scratch_action : t -> unit -> unit

(** Side-table slots handed out so far: the peak number of closure
    events pending at once (freed slots are reused). *)
val closure_slots : t -> int

(** Remove and return the earliest event's entry; raises [Empty] on an
    empty heap. Compatibility path: allocates the returned record. *)
val pop_entry_exn : t -> entry

(** Remove and return the earliest event. *)
val pop : t -> (float * (unit -> unit)) option
