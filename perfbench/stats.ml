(* The benchmark's own arithmetic, kept apart from bench.ml so the
   tests in test_stats.ml can pin it down. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The tail a batch can support: the highest whole percentile whose
   nearest-rank value still has at least [beyond] samples above it.
   For n samples the rank must be at most n - beyond; the percentile
   p = floor(100 (n - beyond) / n) maps back to rank ceil(p n / 100),
   which never exceeds that. Returns (percentile, value, rank). *)
type tail = { percentile : int; value : float; rank : int; samples : int }

let tail ?(beyond = 10) xs =
  let n = Array.length xs in
  if n <= beyond then None
  else begin
    let p = 100 * (n - beyond) / n in
    (* p >= 1 because n > beyond; rank is 1-based *)
    let rank = max 1 (((p * n) + 99) / 100) in
    let a = sorted xs in
    Some { percentile = p; value = a.(rank - 1); rank; samples = n }
  end

(* Self time of a span: its duration minus the part of [t0, t1] that
   its children cover. Children may nest inside each other or overlap
   as siblings (pool tasks); the union is taken, clipped to the
   parent, so no interval is subtracted twice. *)
let self_time ~t0 ~t1 (children : (float * float) list) =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a t0 and b = Float.min b t1 in
        if b > a then Some (a, b) else None)
      children
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  let covered, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (acc, Some (ca, Float.max cb b))
          else (acc +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  let covered = match last with None -> covered | Some (a, b) -> covered +. (b -. a) in
  (t1 -. t0) -. covered

(* A pass's measured time at the reference host's speed (see
   calib.ml). [runs] holds each run's wall time and its wall time
   rescaled by the host speed measured beside it; the pass's [wall]
   time is rescaled by the runs' time-weighted speed factor: the sum of
   the rescaled runs plus the pass's own overhead, rescaled alike. *)
let normalised_pass ~wall runs =
  let raw = List.fold_left (fun a (w, _) -> a +. w) 0.0 runs
  and norm = List.fold_left (fun a (_, n) -> a +. n) 0.0 runs in
  if raw <= 0.0 then invalid_arg "Stats.normalised_pass";
  wall *. norm /. raw

(* A run fails if it raises, if the supervisor returns [Error], or if
   its output check rejects it; each attempted run counts once in the
   denominator however many of those it trips. *)
type run_status = Ok_run | Raised | Supervised_error | Check_failed

let failed_frac statuses =
  let attempted = List.length statuses in
  let failed = List.length (List.filter (fun s -> s <> Ok_run) statuses) in
  if attempted = 0 then invalid_arg "Stats.failed_frac: nothing attempted";
  (failed, attempted, float_of_int failed /. float_of_int attempted)
