(* Seed -> scenario specs. The library only ever sees the specs built
   here; every draw comes from a stdlib generator keyed on (workload,
   seed, run index), so one seed always yields the same batch.

   Each batch is stratified: the run index fixes the CCA, flow count
   or LTE scenario, and a stratum of each drawn link parameter
   (bandwidth, RTT, buffer, arrival rate), and the seed only jitters
   values inside those strata. Different seeds then load the engine
   alike, which keeps the spread of the end-to-end figures across
   seeds small while still giving every seed its own inputs. *)

type churn = {
  rate : float;  (* flow arrivals per simulated second *)
  xm : float;  (* Pareto scale, bytes *)
  alpha : float;  (* Pareto shape *)
  rtt : float;
  bw_mbps : float;
  buffer_kb : int;
}

(* The bottleneck's capacity: drawn here, materialised by the caller so
   that trace generation is timed as its own layer. *)
type link = Wired of float (* Mbit/s *) | Lte of { scenario : Traces.Lte.scenario; seed : int }

type kind =
  | Uniform of {
      cca : string;  (* a Harness.Ccas name *)
      n_flows : int;
      link : link;
      rtt : float;
      buffer_kb : int;
    }
  | Churn of churn

type run = { index : int; seed : int; duration : float; kind : kind }

type name = Wired_deep | Lte_libra | Churn_w

let of_string = function
  | "wired-deep" -> Some Wired_deep
  | "lte-libra" -> Some Lte_libra
  | "churn" -> Some Churn_w
  | _ -> None

let to_string = function
  | Wired_deep -> "wired-deep"
  | Lte_libra -> "lte-libra"
  | Churn_w -> "churn"

let tag = function Wired_deep -> 0x3D1 | Lte_libra -> 0x17E | Churn_w -> 0xC4A

(* Runs in a batch of [seconds]. bench.exe measures three passes over
   the batch, which together take about two thirds of [seconds] on a
   2-vCPU x86 VM in the release profile, calibration included. Many
   short runs rather than a few long ones keep a batch's run-time
   quantiles from hanging on a handful of draws. A lte-libra pass is kept
   shorter than its policy training, so training stays the larger part
   of total_s, as it is for the CLIs. *)
let batch_size w ~seconds =
  let per_s = match w with Wired_deep -> 1.0 | Lte_libra -> 3.0 | Churn_w -> 4.0 /. 3.0 in
  max 12 (int_of_float (Float.round (per_s *. float_of_int seconds)))

let rng w ~seed i = Random.State.make [| tag w; seed; i |]
let uniform st lo hi = lo +. Random.State.float st (hi -. lo)

(* A Latin-hypercube draw: the [k]th of [m] equal strata of [lo, hi],
   jittered inside the stratum. *)
let stratum st ~m k lo hi = lo +. ((hi -. lo) *. (float_of_int k +. Random.State.float st 1.0) /. float_of_int m)

(* wired-deep: four classic CCAs across 12-96 Mbit/s, long RTTs,
   buffers of 1-3 BDP. The [m] runs of one CCA take one stratum each of
   bandwidth, RTT and buffer multiple (in three different orders), so
   every seed gives each CCA the same spread of link sizes. *)
let wired_deep ~seed ~n i =
  let st = rng Wired_deep ~seed i in
  let c = i mod 4 and j = i / 4 in
  let cca = [| "cubic"; "bbr"; "reno"; "copa" |].(c) in
  let m = (n - c + 3) / 4 in
  let bw = stratum st ~m j 12.0 96.0 in
  let rtt = stratum st ~m ((j + (m / 2)) mod m) 0.08 0.2 in
  let bdp_kb = bw *. 1e6 /. 8.0 *. rtt /. 1e3 in
  let buffer_kb = int_of_float (Float.ceil (bdp_kb *. stratum st ~m ((j + (m / 3)) mod m) 1.0 3.0)) in
  let seed = 1 + Random.State.int st 1_000_000 in
  { index = i; seed; duration = 10.0;
    kind = Uniform { cca; n_flows = 6; link = Wired bw; rtt; buffer_kb } }

(* lte-libra: C-Libra and B-Libra with one or two flows on the four
   synthetic LTE scenarios. A run's cost follows its trace's capacity,
   which the seed draws, so the batch holds many short runs: their
   mean cost then moves little from seed to seed. *)
let lte_libra ~seed ~n:_ i =
  let st = rng Lte_libra ~seed i in
  let cca = [| "c-libra"; "b-libra" |].(i mod 2) in
  let n_flows = 1 + ((i / 2) mod 2) in
  let scenario = List.nth Traces.Lte.all_scenarios ((i / 4) mod 4) in
  let link = Lte { scenario; seed = 1 + Random.State.int st 1_000_000 } in
  let rtt = uniform st 0.03 0.08 in
  let seed = 1 + Random.State.int st 1_000_000 in
  { index = i; seed; duration = 20.0;
    kind = Uniform { cca; n_flows; link; rtt; buffer_kb = 150 } }

(* churn: Poisson arrivals of Pareto-sized short flows at a few hundred
   per simulated second on a 48 Mbit/s link, native AIMD. Arrival rate
   and RTT are drawn by strata, as for wired-deep. *)
let churn ~seed ~n i =
  let st = rng Churn_w ~seed i in
  let rate = stratum st ~m:n i 225.0 475.0 in
  let rtt = stratum st ~m:n ((i + (n / 2)) mod n) 0.02 0.06 in
  let seed = 1 + Random.State.int st 1_000_000 in
  { index = i; seed; duration = 20.0;
    kind =
      Churn { rate; xm = 2_000.0; alpha = 1.4; rtt; bw_mbps = 48.0; buffer_kb = 300 } }

let generate w ~seed ~n =
  let one = match w with Wired_deep -> wired_deep | Lte_libra -> lte_libra | Churn_w -> churn in
  Array.init n (one ~seed ~n)
