(* Libra's three-stage control cycle (Alg. 1, Fig. 3).

   Exploration: the classic CCA evolves the applied rate per-ACK from
   the base rate x_prev while the DRL agent runs per-MI as a backup;
   the stage ends after its RTT budget or early when the two candidate
   decisions diverge by th1 (= 0.3 x_prev).

   Evaluation: the two candidates are each applied for one evaluation
   interval, lower rate first (the "minimise self-inflicted side
   effects" rule of Fig. 4). ACKs arriving during this stage carry the
   feedback of the exploration stage, which yields u(x_prev).

   Exploitation: the base rate x_prev is applied; the ACKs of the
   evaluation-stage packets return, yielding u(x_cl) and u(x_rl). At
   stage end the highest-utility rate becomes the next base rate.

   Attributing an ACK to the stage whose rate produced the packet is
   done exactly: stage boundaries are recorded as the first sequence
   number sent in each stage, and per-stage monitors are fed by
   sequence-number lookup rather than by wall-clock guessing. *)

type stage = Exploration | Eval_low | Eval_high | Exploitation

type label = L_explore | L_eval_low | L_eval_high | L_exploit

type t = {
  params : Params.t;
  classic : Classic_cc.Embedded.t option;  (* None = Clean-slate Libra *)
  agent : Rlcc.Agent.t;
  telemetry : Telemetry.t;
  rtt : Netsim.Cca.Rtt_tracker.tracker;
  (* Per-stage measurement monitors. *)
  m_explore : Netsim.Monitor.t;
  m_eval_low : Netsim.Monitor.t;
  m_eval_high : Netsim.Monitor.t;
  (* Stage boundaries: (first seq of the stage, label). *)
  boundaries : (int * label) Queue.t;
  mutable ack_label : label;
  mutable pending_label : label option;
  mutable stage : stage;
  mutable stage_end : float;
  mutable x_prev : float;
  mutable x_cl : float;
  mutable x_rl : float;
  mutable eval_low_rate : float;
  mutable eval_high_rate : float;
  mutable low_is_rl : bool;
  mutable applied : float;  (* the pacing rate currently in force *)
  mutable cycle_start : float;
  mutable started : bool;
  mutable ambient_loss : float;  (* slow EWMA of measured loss rate *)
  mutable rtt_ceiling : float;  (* highest window-average RTT seen *)
  mutable explore_sent : int;  (* packets sent in the current exploration *)
  mutable consecutive_timeouts : int;
  mutable decisions_at_cycle_start : int;
  (* Watchdog: a diverged DRL agent (non-finite rate, collapsed
     utility) is quarantined for the rest of the cycle — the cycle
     falls back to the classic arm instead of adopting a poisoned
     candidate. Cleared when the next exploration stage begins. *)
  mutable rl_quarantined : bool;
  mutable rl_fallbacks : int;
}

let exploration_rtts t =
  match t.params.Params.exploration_rtts with
  | Some v -> v
  | None -> (
    match t.classic with
    | Some c -> c.Classic_cc.Embedded.exploration_rtts
    | None -> 1.0)

let exploitation_rtts t =
  match t.params.Params.exploitation_rtts with
  | Some v -> v
  | None -> exploration_rtts t

let srtt t = Netsim.Cca.Rtt_tracker.srtt t.rtt

let create ?(initial_rate = Netsim.Units.mbps_to_bps 2.0) ~params ~classic ~policy
    ~state_set () =
  let agent =
    Rlcc.Agent.create ~seed:params.Params.seed
      ~stochastic:params.Params.rl_stochastic ~mi_of_rtt:params.Params.mi_of_rtt
      ~policy ~action:Rlcc.Actions.Mimd_orca ~set:state_set
      ~history:params.Params.history ~initial_rate ()
  in
  {
    params;
    classic;
    agent;
    telemetry = Telemetry.create ();
    rtt = Netsim.Cca.Rtt_tracker.create ();
    m_explore = Netsim.Monitor.create ~now:0.0;
    m_eval_low = Netsim.Monitor.create ~now:0.0;
    m_eval_high = Netsim.Monitor.create ~now:0.0;
    boundaries = Queue.create ();
    ack_label = L_explore;
    pending_label = None;
    stage = Exploration;
    stage_end = 0.0;
    x_prev = initial_rate;
    x_cl = initial_rate;
    x_rl = initial_rate;
    eval_low_rate = initial_rate;
    eval_high_rate = initial_rate;
    low_is_rl = false;
    applied = initial_rate;
    cycle_start = 0.0;
    started = false;
    ambient_loss = 0.0;
    rtt_ceiling = 0.0;
    explore_sent = 0;
    consecutive_timeouts = 0;
    decisions_at_cycle_start = 0;
    rl_quarantined = false;
    rl_fallbacks = 0;
  }

let telemetry t = t.telemetry
let agent t = t.agent
let rl_fallbacks t = t.rl_fallbacks
let base_rate t = t.x_prev
let stage t = t.stage

let monitor_of t = function
  | L_explore -> Some t.m_explore
  | L_eval_low -> Some t.m_eval_low
  | L_eval_high -> Some t.m_eval_high
  | L_exploit -> None

(* Mark that the next packet sent begins a new measurement window. *)
let mark_boundary t label = t.pending_label <- Some label

(* A measurement window must contain enough packets to be scored: at low
   rates a 0.5-RTT interval can hold fewer than two packets, which would
   make every cycle unevaluable and freeze the base rate. Windows are
   stretched to fit at least [min_pkts] transmissions. *)
let min_window ~rate min_pkts =
  float_of_int (min_pkts * Netsim.Units.mtu) /. Float.max 1500.0 rate

let stage_name = function
  | Exploration -> "exploration"
  | Eval_low -> "eval_low"
  | Eval_high -> "eval_high"
  | Exploitation -> "exploitation"

let m_cycles = Obs.Metrics.counter "libra.cycles"
let m_skips = Obs.Metrics.counter "libra.skips"
let m_fallbacks = Obs.Metrics.counter "libra.rl_fallbacks"

(* Quarantine the DRL arm for the rest of this cycle, once. *)
let quarantine t ~now ~detail ~value =
  if not t.rl_quarantined then begin
    t.rl_quarantined <- true;
    t.rl_fallbacks <- t.rl_fallbacks + 1;
    Obs.Metrics.incr m_fallbacks;
    if Obs.Trace.on Obs.Category.Harness then
      Obs.Trace.emit
        (Obs.Event.Harness
           { t = now; kind = "fallback"; id = "controller"; detail; attempt = 0; value })
  end

let enter_stage t ~now stage =
  t.stage <- stage;
  if Obs.Trace.on Obs.Category.Stage then
    Obs.Trace.emit
      (Obs.Event.Stage { t = now; stage = stage_name stage; base_rate = t.x_prev });
  let rtt = srtt t in
  (match stage with
  | Exploration ->
    t.cycle_start <- now;
    t.explore_sent <- 0;
    t.rl_quarantined <- false;
    t.decisions_at_cycle_start <- Rlcc.Agent.decisions t.agent;
    t.stage_end <-
      now
      +. Float.max (exploration_rtts t *. rtt) (min_window ~rate:t.x_prev 6);
    Netsim.Monitor.reset t.m_explore ~now;
    mark_boundary t L_explore;
    (match t.classic with
    | Some c ->
      c.Classic_cc.Embedded.set_rate ~now t.x_prev;
      t.applied <- t.x_prev
    | None -> t.applied <- t.x_prev);
    Rlcc.Agent.set_rate t.agent t.x_prev;
    Rlcc.Agent.begin_mi t.agent ~now
  | Eval_low ->
    t.stage_end <-
      now
      +. Float.max (t.params.Params.ei_rtts *. rtt)
           (min_window ~rate:t.eval_low_rate 5);
    Netsim.Monitor.reset t.m_eval_low ~now;
    mark_boundary t L_eval_low;
    t.applied <- t.eval_low_rate
  | Eval_high ->
    t.stage_end <-
      now
      +. Float.max (t.params.Params.ei_rtts *. rtt)
           (min_window ~rate:t.eval_high_rate 5);
    Netsim.Monitor.reset t.m_eval_high ~now;
    mark_boundary t L_eval_high;
    t.applied <- t.eval_high_rate
  | Exploitation ->
    t.stage_end <- now +. (exploitation_rtts t *. rtt);
    mark_boundary t L_exploit;
    t.applied <- t.x_prev);
  ()

(* Freeze the two candidates and order them lower-rate-first. In the
   clean-slate variant (no classic CCA) the second candidate is a plain
   multiplicative probe of the base rate -- the framework still needs
   something to test against the DRL decision, and a 1.25x probe is the
   neutral bandwidth-probing device (BBR's probe gain). *)
let clean_slate_probe_gain = 1.25

let begin_evaluation t ~now =
  t.x_cl <-
    (match t.classic with
    | Some c -> c.Classic_cc.Embedded.get_rate ~now
    | None -> clean_slate_probe_gain *. t.x_prev);
  t.x_rl <- Rlcc.Agent.rate t.agent;
  (* Watchdog: a non-finite or non-positive DRL rate (diverged policy
     weights, poisoned feature) must not be applied to the network.
     Substitute the base rate — evaluating it is just re-measuring
     x_prev — and quarantine the arm so this cycle cannot adopt it. *)
  if not (Float.is_finite t.x_rl && t.x_rl > 0.0) then begin
    quarantine t ~now ~detail:"nonfinite-rl-rate" ~value:t.x_rl;
    t.x_rl <- t.x_prev
  end;
  let rl_first =
    if t.params.Params.eval_lower_first then t.x_rl <= t.x_cl else t.x_rl > t.x_cl
  in
  if rl_first then begin
    t.eval_low_rate <- t.x_rl;
    t.eval_high_rate <- t.x_cl;
    t.low_is_rl <- true
  end
  else begin
    t.eval_low_rate <- t.x_cl;
    t.eval_high_rate <- t.x_rl;
    t.low_is_rl <- false
  end;
  enter_stage t ~now Eval_low

(* Loss handling when scoring candidates. An evaluation interval holds
   only a handful of packets at low rates, so its raw loss rate is a
   coin flip (one drop among five packets reads as 20%); and loss that
   every candidate suffers alike -- a stochastic-loss path, or a
   droptail queue a competing CUBIC keeps full -- says nothing about
   which candidate is better, it only ratchets the winner downwards
   until the flow starves. Candidates are therefore scored on their
   loss *in excess* of the flow's ambient loss level (a slow EWMA),
   with pseudo-count shrinkage against tiny windows. Self-inflicted
   congestion still registers: pushing a saturated queue raises the
   measured loss above the ambient average within the same window.
   This realises the paper's Remark 3 (Libra "can immediately correct
   the erroneous reduction caused by the stochastic packet loss"). *)
let shrunk_loss (s : Netsim.Monitor.snapshot) =
  let lost = float_of_int s.Netsim.Monitor.lost_pkts in
  let total = float_of_int (s.Netsim.Monitor.lost_pkts + s.Netsim.Monitor.acked) in
  lost /. (total +. 4.0)

(* The ambient floor tracks the loss rate pooled over whole cycles
   (slow EWMA): path-wide stochastic loss raises it, while a single
   candidate's overflow burst moves it only slowly. The floor is
   capped so heavy sustained loss can never be fully self-forgiven.

   Crucially the discount only applies while the path shows no standing
   queue: random loss arrives with RTT at its floor, congestion loss
   arrives with the bottleneck buffer occupied. Discounting congestion
   loss would let an incumbent Libra flow forgive itself the very
   signal that makes it yield bandwidth to late-arriving flows -- the
   loss term's level at a saturated queue is what drives Theorem 4.1's
   convergence to the fair share. *)
let ambient_cap = 0.25

let queue_free_fraction (s : Netsim.Monitor.snapshot) =
  if Float.is_nan s.Netsim.Monitor.avg_rtt then 1.0
  else begin
    let ratio = s.Netsim.Monitor.avg_rtt /. Float.max 1e-4 s.Netsim.Monitor.min_rtt in
    (* 1 below 1.2x the RTT floor, fading to 0 at 1.5x. *)
    Float.min 1.0 (Float.max 0.0 ((1.5 -. ratio) /. 0.3))
  end

let excess_loss t s =
  let discount =
    Float.min t.ambient_loss ambient_cap *. queue_free_fraction s
  in
  Float.max 0.0 (shrunk_loss s -. discount)

(* The RTT-gradient penalty needs de-biasing: a competing loss-based
   flow ramping into the shared buffer imposes a positive RTT slope on
   *every* window, and because the Eq. 1 penalty scales with the
   candidate's own x, a common-mode slope of just +0.001 s/s
   (beta = 900) pins the argmax at a near-zero rate and starves the
   flow. Two treatments make the term usable on short windows:

   - common-mode rejection: within one cycle the three measurement
     windows span ~ a handful of RTTs, so a competitor-induced trend is
     nearly identical across them; only each window's slope relative to
     the cycle mean distinguishes the candidates (this is PCC Vivace's
     paired-probe logic generalised to Libra's three windows);
   - significance: a slope estimated from a handful of ACKs whose
     magnitude is within ~2 standard errors is indistinguishable from
     noise, and with beta = 900 noise would dominate x^t entirely, so
     insignificant slopes score as zero.

   The detrended slope is kept signed: clipping at zero would make the
   residual noise one-sided (a poisoned window destroys a candidate, a
   clean one barely helps), freezing the base-rate ratchet. *)
let excess_grad ~common (s : Netsim.Monitor.snapshot) =
  let detrended = s.Netsim.Monitor.rtt_gradient -. common in
  if Float.abs detrended < 2.0 *. s.Netsim.Monitor.rtt_grad_se then 0.0
  else detrended

let utility_of t ~common_grad ~rate_bps (s : Netsim.Monitor.snapshot) =
  Utility.eval_signed t.params.Params.utility
    ~rate_mbps:(Netsim.Units.bps_to_mbps rate_bps)
    ~rtt_gradient:(excess_grad ~common:common_grad s)
    ~loss_rate:(excess_loss t s)

let span_cycle = Obs.Span.probe "libra.finish_cycle"

(* End of the exploitation stage: score the three candidates and adopt
   the best as the next base rate (Alg. 1 lines 20-22). *)
let finish_cycle t ~now =
 Obs.Span.timed span_cycle (fun now ->
  let snap_of m = Netsim.Monitor.snapshot m ~now in
  let explore = snap_of t.m_explore in
  let low = snap_of t.m_eval_low in
  let high = snap_of t.m_eval_high in
  let enough s = s.Netsim.Monitor.acked >= 2 in
  (* Cycle-common levels for the de-biasing in [excess_grad] /
     [excess_loss]. *)
  let common_grad =
    (explore.Netsim.Monitor.rtt_gradient +. low.Netsim.Monitor.rtt_gradient
    +. high.Netsim.Monitor.rtt_gradient)
    /. 3.0
  in
  (* Ambient stochastic-loss floor: EWMA of the loss pooled over the
     whole cycle (individual 5-packet windows are all-or-nothing coin
     flips; the cycle pool is stable enough to track the path's random
     loss level). *)
  let pooled_lost =
    explore.Netsim.Monitor.lost_pkts + low.Netsim.Monitor.lost_pkts
    + high.Netsim.Monitor.lost_pkts
  in
  let pooled_total =
    pooled_lost + explore.Netsim.Monitor.acked + low.Netsim.Monitor.acked
    + high.Netsim.Monitor.acked
  in
  let pooled_loss =
    float_of_int pooled_lost /. float_of_int (max 1 pooled_total)
  in
  if enough explore && enough low && enough high then begin
    t.ambient_loss <- (0.9 *. t.ambient_loss) +. (0.1 *. pooled_loss);
    Rlcc.Agent.set_loss_discount t.agent (Float.min t.ambient_loss ambient_cap)
  end;
  (* Track the highest window-average RTT (the queue ceiling used by
     [grad_gate]). *)
  List.iter
    (fun (w : Netsim.Monitor.snapshot) ->
      if (not (Float.is_nan w.Netsim.Monitor.avg_rtt))
         && w.Netsim.Monitor.avg_rtt > t.rtt_ceiling
      then t.rtt_ceiling <- w.Netsim.Monitor.avg_rtt)
    [ explore; low; high ];
  if t.params.Params.debug then begin
    let show label rate (s : Netsim.Monitor.snapshot) =
      Printf.printf
        "  %-7s x=%6.2fMbps thr=%6.2f grad=%+8.4f se=%7.4f gadj=%+8.4f L=%5.3f \
         Ladj=%5.3f acked=%d\n"
        label
        (Netsim.Units.bps_to_mbps rate)
        (Netsim.Units.bps_to_mbps s.Netsim.Monitor.throughput)
        s.Netsim.Monitor.rtt_gradient s.Netsim.Monitor.rtt_grad_se
        (excess_grad ~common:common_grad s)
        (shrunk_loss s)
        (excess_loss t s)
        s.Netsim.Monitor.acked
    in
    Printf.printf "cycle @%.2fs ambient_loss=%.3f common_grad=%+.4f\n" now
      t.ambient_loss common_grad;
    show "explore" t.x_prev explore;
    show "ev-lo" t.eval_low_rate low;
    show "ev-hi" t.eval_high_rate high
  end;
  if enough low && enough high && enough explore then begin
    let u = utility_of t ~common_grad in
    let u_prev = u ~rate_bps:t.x_prev explore in
    let u_low = u ~rate_bps:t.eval_low_rate low in
    let u_high = u ~rate_bps:t.eval_high_rate high in
    let u_rl, u_cl = if t.low_is_rl then (u_low, u_high) else (u_high, u_low) in
    (* Watchdog, scoring side: a collapsed (non-finite) RL utility, or
       an arm already quarantined this cycle, scores -inf so the argmax
       below can only pick the classic arm or the base rate. *)
    if not (Float.is_finite u_rl) then
      quarantine t ~now ~detail:"nonfinite-utility" ~value:u_rl;
    let u_rl = if t.rl_quarantined then neg_infinity else u_rl in
    let chosen, x_next =
      if u_rl >= u_cl && u_rl >= u_prev then (Telemetry.Rl, t.x_rl)
      else if u_cl >= u_rl && u_cl >= u_prev then (Telemetry.Cl, t.x_cl)
      else (Telemetry.Prev, t.x_prev)
    in
    Telemetry.record t.telemetry
      { Telemetry.at = now; chosen; u_prev; u_rl; u_cl; x_next };
    Obs.Metrics.incr m_cycles;
    if Obs.Trace.on Obs.Category.Cycle then begin
      let chosen_name =
        match chosen with
        | Telemetry.Prev -> "prev"
        | Telemetry.Rl -> "rl"
        | Telemetry.Cl -> "cl"
      in
      Obs.Trace.emit
        (Obs.Event.Cycle
           { t = now; chosen = chosen_name; u_prev; u_rl; u_cl; x_next })
    end;
    t.x_prev <- Float.max 1500.0 x_next
  end
  else begin
    (* Not enough feedback to evaluate: keep x_prev (Sec. 3's no-ACK
       rule). *)
    Telemetry.record_skip t.telemetry;
    Obs.Metrics.incr m_skips;
    if Obs.Trace.on Obs.Category.Cycle then
      Obs.Trace.emit
        (Obs.Event.Cycle
           { t = now; chosen = "skip"; u_prev = nan; u_rl = nan; u_cl = nan;
             x_next = t.x_prev })
  end;
  enter_stage t ~now Exploration)
  now

let advance t ~now =
  if now >= t.stage_end then begin
    match t.stage with
    | Exploration ->
      (* The DRL agent must have produced at least one decision this
         cycle (Alg. 1 line 6), otherwise x_rl degenerates to x_prev
         and the framework loses one of its two candidate generators.
         The stage extends up to one extra budget waiting for the
         agent's monitor interval to close; past that (ACK drought) it
         proceeds regardless. *)
      let agent_decided = Rlcc.Agent.decisions t.agent > t.decisions_at_cycle_start in
      let budget = t.stage_end -. t.cycle_start in
      if agent_decided || now >= t.stage_end +. budget then
        begin_evaluation t ~now
    | Eval_low -> enter_stage t ~now Eval_high
    | Eval_high -> enter_stage t ~now Exploitation
    | Exploitation -> finish_cycle t ~now
  end

(* Early exit from exploration when the candidates diverge (Alg. 1
   lines 10-11). The stage must first have sent enough packets to be
   scoreable, otherwise u(x_prev) cannot be evaluated this cycle --
   at low rates CUBIC's very first ACK already moves the rate by more
   than th1, and exiting immediately would starve every cycle of its
   exploration measurement. *)
let min_explore_sent = 4

let check_divergence t ~now =
  if t.stage = Exploration && t.explore_sent >= min_explore_sent then begin
    let x_cl =
      match t.classic with
      | Some c -> c.Classic_cc.Embedded.get_rate ~now
      | None -> t.x_prev
    in
    let x_rl = Rlcc.Agent.rate t.agent in
    if Float.abs (x_cl -. x_rl) >= t.params.Params.th1_frac *. t.x_prev then
      begin_evaluation t ~now
  end

let span_on_ack = Obs.Span.probe "libra.on_ack"

let on_ack_impl t (ack : Netsim.Cca.ack_info) =
  Netsim.Cca.Rtt_tracker.observe t.rtt ack.rtt;
  t.consecutive_timeouts <- 0;
  (* The classic CCA keeps learning from every ACK (its per-ACK cost is
     negligible); the DRL agent runs only inside the exploration stage,
     which is where Libra's overhead reduction comes from. The classic
     CCA is fed before the first cycle starts so its RTT estimate is
     primed when the cycle imposes the base rate. *)
  (match t.classic with
  | Some c -> c.Classic_cc.Embedded.cca.Netsim.Cca.on_ack ack
  | None -> ());
  if not t.started then begin
    t.started <- true;
    enter_stage t ~now:ack.now Exploration
  end;
  (* Route the ACK to the measurement window of the stage that sent the
     packet. *)
  let rec catch_up () =
    match Queue.peek_opt t.boundaries with
    | Some (first_seq, label) when ack.seq >= first_seq ->
      ignore (Queue.pop t.boundaries);
      t.ack_label <- label;
      catch_up ()
    | Some _ | None -> ()
  in
  catch_up ();
  (match monitor_of t t.ack_label with
  | Some m -> Netsim.Monitor.on_ack m ack
  | None -> ());
  if t.stage = Exploration then begin
    ignore (Rlcc.Agent.on_ack t.agent ack);
    if t.stage = Exploration then t.applied <-
      (match t.classic with
      | Some c -> c.Classic_cc.Embedded.get_rate ~now:ack.now
      | None -> t.x_prev);
    check_divergence t ~now:ack.now
  end;
  advance t ~now:ack.now

(* Per-ACK entry point of the whole controller; gated like the heap
   probes so the disabled path stays a branch. The CCA record applies
   [on_ack t] once, so the profiled path reuses one [on_ack_impl t]
   closure instead of building one per ACK. *)
let on_ack t =
  let impl = on_ack_impl t in
  fun ack ->
    if Obs.Span.enabled () then Obs.Span.timed span_on_ack impl ack
    else on_ack_impl t ack

let on_loss t (loss : Netsim.Cca.loss_info) =
  (match t.classic with
  | Some c -> c.Classic_cc.Embedded.cca.Netsim.Cca.on_loss loss
  | None -> ());
  match loss.Netsim.Cca.kind with
  | Netsim.Cca.Timeout ->
    (* Sec. 3's no-ACK rule: keep the base rate and restart the cycle.
       Only *repeated* timeouts (a genuinely dead or collapsed path)
       halve it -- on a high-random-loss path a single tail-loss RTO is
       routine and halving every time would spiral the rate down. *)
    Rlcc.Agent.on_timeout_loss t.agent ~pkts:loss.Netsim.Cca.lost;
    t.consecutive_timeouts <- t.consecutive_timeouts + 1;
    if t.consecutive_timeouts >= 2 then
      t.x_prev <- Float.max 1500.0 (t.x_prev /. 2.0);
    if t.started then enter_stage t ~now:loss.Netsim.Cca.now Exploration
  | Netsim.Cca.Gap_detected -> ()

let on_send t (send : Netsim.Cca.send_info) =
  Rlcc.Agent.observe_send t.agent send;
  if t.stage = Exploration then t.explore_sent <- t.explore_sent + 1;
  (match t.pending_label with
  | Some label ->
    Queue.push (send.Netsim.Cca.seq, label) t.boundaries;
    t.pending_label <- None
  | None -> ());
  if t.started then advance t ~now:send.Netsim.Cca.now

let pacing_rate t ~now =
  ignore now;
  t.applied

let cwnd t ~now =
  ignore now;
  let min_rtt = Netsim.Cca.Rtt_tracker.min_rtt t.rtt in
  Float.max 4.0 (t.applied *. (min_rtt +. 0.25) /. float_of_int Netsim.Units.mtu)

let as_cca ~name t =
  {
    Netsim.Cca.name;
    on_ack = on_ack t;
    on_loss = on_loss t;
    on_send = on_send t;
    pacing_rate = (fun ~now -> pacing_rate t ~now);
    cwnd = (fun ~now -> cwnd t ~now);
  }
