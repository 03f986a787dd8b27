(* train: run PPO training for one of the named state sets and report
   the learning curve and tail statistics. Useful for exploring the
   Sec. 4.2 design space from the command line. *)

open Cmdliner

let sets =
  List.map (fun s -> (String.lowercase_ascii s.Rlcc.Features.set_name, s))
    Rlcc.Features.fig5_sets

(* Run [f] with a tracer/metrics registry installed when exports are
   requested (lane 0: training is a single serial loop). *)
let with_observability ~trace_out ~trace_filter ~metrics_out ~manifest f =
  let categories =
    match trace_filter with
    | None -> Obs.Category.all
    | Some spec -> Obs.Category.parse_filter spec
  in
  match (trace_out, metrics_out) with
  | None, None -> f ()
  | _ ->
    let tracer = Obs.Trace.create ~categories ~manifest () in
    let reg = Obs.Metrics.create_registry () in
    let result =
      Obs.Trace.run tracer ~lane:0 (fun () -> Obs.Metrics.run reg f)
    in
    Option.iter (Obs.Trace.write tracer) trace_out;
    Option.iter (Obs.Metrics.write_csv reg) metrics_out;
    Option.iter
      (fun file ->
        Printf.printf "trace: %d events -> %s\n" (Obs.Trace.length tracer) file)
      trace_out;
    result

let run_cmd set_name episodes steps seed randomized delta no_loss chaos chaos_seed
    checkpoint_dir resume snapshot_every trace_out trace_filter metrics_out =
  if resume && checkpoint_dir = None then begin
    prerr_endline "--resume requires --checkpoint DIR";
    exit 2
  end;
  (match Chaos.Spec.of_string chaos with
  | Ok s -> Chaos.Plane.install ~seed:chaos_seed s
  | Error m ->
    prerr_endline m;
    exit 2);
  match List.assoc_opt set_name sets with
  | None ->
    Printf.eprintf "unknown state set %S (known: %s)\n" set_name
      (String.concat ", " (List.map fst sets));
    1
  | Some state_set ->
    let reward =
      { Rlcc.Reward.default with Rlcc.Reward.use_delta = delta; include_loss = not no_loss }
    in
    let cfg =
      {
        Rlcc.Train.default_config with
        Rlcc.Train.state_set;
        episodes;
        steps_per_episode = steps;
        seed;
        reward;
        env_mode = (if randomized then `Randomized else `Fixed Rlcc.Env.default_cfg);
      }
    in
    let t0 = Sys.time () in
    let manifest = Obs.Manifest.make ~seeds:[ seed ] ~scale:"cli" ~domains:1 () in
    (* Snapshots live in the same content-addressed store as experiment
       checkpoints, keyed by the full training configuration: resuming
       under different flags reads a different cell, never a stale
       snapshot. *)
    let store = Option.map (fun dir -> Exec.Checkpoint.create ~dir) checkpoint_dir in
    let ckpt_key =
      Exec.Checkpoint.key ~parts:[ "train"; Rlcc.Train.config_key cfg ]
    in
    let resume_from =
      match store with
      | Some st when resume ->
        (* A snapshot that fails verification, parsing or the config
           check is quarantined and training restarts fresh — a torn or
           bit-flipped cell is detected and named, never resumed from. *)
        let snap =
          match Rlcc.Train.load_snapshot st ~key:ckpt_key cfg with
          | Rlcc.Train.Loaded s -> Some s
          | Rlcc.Train.Absent -> None
          | Rlcc.Train.Rejected { path; reason; quarantined } ->
            Printf.eprintf "[train] CORRUPT snapshot %s (%s)%s\n%!" path reason
              (match quarantined with
              | Some qp -> Printf.sprintf "; quarantined to %s" qp
              | None -> "");
            None
          | exception Chaos.Io.Fault { fault; path; _ } ->
            Printf.eprintf "[train] snapshot load fault: %s at %s\n%!" fault path;
            None
        in
        (match snap with
        | Some _ -> Printf.eprintf "[train] resuming from snapshot %s\n%!" ckpt_key
        | None -> Printf.eprintf "[train] no snapshot for this configuration; starting fresh\n%!");
        snap
      | _ -> None
    in
    let on_snapshot =
      Option.map
        (fun st ~episode snap ->
          match Rlcc.Train.save_snapshot st ~key:ckpt_key snap with
          | () -> Printf.eprintf "[train] snapshot after episode %d\n%!" episode
          | exception Chaos.Io.Fault { fault; path; _ } ->
            (* A failed snapshot must not kill training: the run keeps
               its in-memory state; only resumability is lost. *)
            Printf.eprintf "[train] snapshot fault after episode %d: %s at %s\n%!"
              episode fault path)
        store
    in
    let snapshot_every = if store = None then 0 else snapshot_every in
    let outcome =
      try
        with_observability ~trace_out ~trace_filter ~metrics_out ~manifest
          (fun () -> Rlcc.Train.run ?on_snapshot ~snapshot_every ?resume_from cfg)
      with Chaos.Io.Fault { fault; path; detail } ->
        (* An injected export fault must not escape as a crash. *)
        Printf.eprintf "[train] export fault: %s at %s (%s)\n%!" fault path detail;
        exit 6
    in
    let elapsed = Sys.time () -. t0 in
    let curve = Rlcc.Train.smooth outcome.Rlcc.Train.episode_rewards in
    Printf.printf "state set %s, %d episodes x %d steps (%.1fs CPU)\n"
      state_set.Rlcc.Features.set_name episodes steps elapsed;
    print_endline "smoothed reward curve (10 samples):";
    for i = 0 to 9 do
      let idx = i * (Array.length curve - 1) / 9 in
      Printf.printf "  ep %4d: %8.1f\n" idx curve.(idx)
    done;
    Printf.printf "tail: throughput %.1f Mbit/s, rtt %.0f ms, loss %.2f%%\n"
      (Netsim.Units.bps_to_mbps outcome.Rlcc.Train.final_throughput)
      (outcome.Rlcc.Train.final_rtt *. 1000.0)
      (outcome.Rlcc.Train.final_loss *. 100.0);
    if outcome.Rlcc.Train.rollbacks > 0 then
      Printf.printf "divergence guard: rolled back %d update(s)\n"
        outcome.Rlcc.Train.rollbacks;
    if Chaos.Plane.surfaced () > 0 || Chaos.Plane.corrupt_detected () > 0 then 6
    else 0

let set_name = Arg.(value & opt string "libra" & info [ "set" ] ~doc:"state set")
let episodes = Arg.(value & opt int 150 & info [ "episodes" ] ~doc:"episodes")
let steps = Arg.(value & opt int 160 & info [ "steps" ] ~doc:"steps per episode")
let seed = Arg.(value & opt int 23 & info [ "seed" ] ~doc:"seed")
let randomized = Arg.(value & flag & info [ "randomized" ] ~doc:"randomized envs")
let delta = Arg.(value & flag & info [ "delta" ] ~doc:"train on delta-r")
let no_loss = Arg.(value & flag & info [ "no-loss" ] ~doc:"drop the loss term")

let chaos =
  Arg.(
    value
    & opt string "none"
    & info [ "chaos" ] ~docv:"SPEC"
        ~doc:
          "inject host faults into snapshot/export persistence (grammar as \
           experiments --chaos); faults surface as structured errors and \
           exit code 6, never a crash")

let chaos_seed =
  Arg.(
    value & opt int 0
    & info [ "chaos-seed" ] ~docv:"N" ~doc:"seed for the chaos schedule")

let checkpoint_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"DIR"
        ~doc:
          "save periodic training snapshots (policy, optimiser, rng and env \
           state) to a store under $(docv), keyed by the full configuration")

let resume =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "continue from the latest snapshot in the --checkpoint store \
           (bit-identical to the uninterrupted run)")

let snapshot_every =
  Arg.(
    value & opt int 25
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:"episodes between snapshots (with --checkpoint)")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "export the RL step trace to $(docv) (.csv gets CSV, anything else \
           JSONL)")

let trace_filter =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-filter" ] ~docv:"CAT,.."
        ~doc:"comma-separated event categories; default all (training emits rl)")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE" ~doc:"export the metrics registry as CSV")

let cmd =
  Cmd.v
    (Cmd.info "train" ~doc:"PPO training for the DRL-based CCA")
    Term.(
      const run_cmd $ set_name $ episodes $ steps $ seed $ randomized $ delta
      $ no_loss $ chaos $ chaos_seed $ checkpoint_dir $ resume $ snapshot_every
      $ trace_out $ trace_filter $ metrics_out)

let () = exit (Cmd.eval' cmd)
