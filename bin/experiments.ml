(* experiments: run any paper experiment by id.

     experiments fig1 fig7
     experiments --all
     experiments --full tab6      # paper-scale durations and trials *)

open Cmdliner

let run_cmd full tiny stress checkpoint_dir resume inject_crash retries
    wall_deadline flags ids all =
  if (if full then 1 else 0) + (if tiny then 1 else 0) + (if stress then 1 else 0) > 1
  then begin
    prerr_endline "--full, --tiny and --stress are mutually exclusive";
    exit 2
  end;
  if retries < 0 then begin
    Printf.eprintf "invalid --retries %d (want >= 0)\n" retries;
    exit 2
  end;
  if resume && checkpoint_dir = None then begin
    prerr_endline "--resume requires --checkpoint DIR";
    exit 2
  end;
  (* --chaos covers every persistence operation (checkpoint cells,
     exports, flight dumps) and the domain pool's tasks. *)
  let v = Cli.install flags in
  Harness.Scenario.set_default_impair v.Cli.impair_spec;
  let scale_name =
    if full then "full"
    else if tiny then "tiny"
    else if stress then "stress"
    else "quick"
  in
  Harness.Scale.set
    (if full then Harness.Scale.full
     else if tiny then Harness.Scale.tiny
     else if stress then Harness.Scale.stress
     else Harness.Scale.quick);
  let manifest =
    Obs.Manifest.make ~scale:scale_name
      ~domains:(Exec.Pool.size (Exec.Pool.default ()))
      ~impair:(Faults.Spec.to_string v.Cli.impair_spec)
      ~extra:(Cli.manifest_extra v) ()
  in
  (* Lanes are entry indices: deterministic at any pool size. *)
  let session = Cli.Session.create ~manifest v in
  let run_all_groups = all || ids = [] in
  let missing =
    if run_all_groups then []
    else List.filter (fun id -> Harness.Registry.find id = None) ids
  in
  let status =
    if missing <> [] then begin
      Printf.eprintf "unknown experiment(s): %s\nknown: %s\n"
        (String.concat ", " missing)
        (String.concat ", " (Harness.Registry.ids ()));
      1
    end
    else begin
      let entries =
        if run_all_groups then Harness.Registry.groups ()
        else List.filter_map Harness.Registry.find ids
      in
      (* --inject-crash appends a fixture entry that always raises, so
         the crash-isolation path (failure report in order, non-zero
         exit, siblings untouched) can be exercised end-to-end by CI
         without corrupting a real experiment. *)
      let entries =
        if inject_crash then
          entries
          @ [
              Harness.Registry.e "fixture-crash"
                "always-raising fixture (--inject-crash)"
                (fun () -> failwith "injected crash")
                "fixture-crash";
            ]
        else entries
      in
      let supervision =
        {
          Harness.Registry.retries;
          deadline_events = flags.Cli.deadline_events;
          wall_s = wall_deadline;
          checkpoint =
            Option.map
              (fun dir ->
                let store = Exec.Checkpoint.create ~dir in
                (* The startup sweep removes temp files orphaned by an
                   interrupted save (crash or injected torn write). *)
                if Exec.Checkpoint.swept store > 0 then
                  Printf.eprintf "[checkpoint] swept %d orphaned tmp file(s)\n%!"
                    (Exec.Checkpoint.swept store);
                store)
              checkpoint_dir;
          resume;
        }
      in
      let summary =
        Harness.Registry.run_all ~wrap:(fun lane -> Cli.Session.wrap session ~lane)
          ~supervision ~entries ()
      in
      if summary.Harness.Registry.failed > 0 then 3 else 0
    end
  in
  let lane_name =
    let entries =
      if run_all_groups then Harness.Registry.groups ()
      else List.filter_map Harness.Registry.find ids
    in
    let arr = Array.of_list entries in
    fun lane ->
      if lane < Array.length arr then
        (if run_all_groups then arr.(lane).Harness.Registry.group
         else arr.(lane).Harness.Registry.id)
      else if inject_crash && lane = Array.length arr then "fixture-crash"
      else string_of_int lane
  in
  Cli.Session.export ~lane_name session;
  (* Violations already failed their entries through the supervisor;
     this is the detail. *)
  Cli.Session.report_invariants ~lane_name session;
  Cli.finish status

let full = Arg.(value & flag & info [ "full" ] ~doc:"paper-scale durations")

let tiny =
  Arg.(
    value & flag
    & info [ "tiny" ]
        ~doc:"smoke-test durations (meaningless numbers, full code paths)")

let stress =
  Arg.(
    value & flag
    & info [ "stress" ]
        ~doc:
          "many-flow stress durations (long single runs for the population / \
           scale-out experiments)")

let checkpoint_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"DIR"
        ~doc:
          "save each finished experiment's report to a content-addressed \
           store under $(docv), keyed by (experiment, scale, impair, git \
           sha); combine with --resume to skip completed cells")

let resume =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "serve experiments already present in the --checkpoint store from \
           their saved reports (byte-identical) instead of re-running them")

let inject_crash =
  Arg.(
    value & flag
    & info [ "inject-crash" ]
        ~doc:
          "append an always-raising fixture experiment (crash-isolation \
           smoke test; the run exits 3 with every real experiment intact)")

let retries =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "extra attempts per experiment after a failure, with a \
           deterministic recorded backoff schedule")

let wall_deadline =
  Arg.(
    value
    & opt (some float) None
    & info [ "wall-deadline" ] ~docv:"SECONDS"
        ~doc:
          "nondeterministic wall-clock backstop per attempt (recorded in \
           the failure report but excluded from its digest)")

let all = Arg.(value & flag & info [ "all" ] ~doc:"run every experiment")
let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID")

let cmd =
  Cmd.v
    (Cmd.info "experiments" ~doc:"reproduce the paper's tables and figures")
    Term.(
      const run_cmd $ full $ tiny $ stress $ checkpoint_dir $ resume
      $ inject_crash $ retries $ wall_deadline $ Cli.all_term ~trace:"trace"
      $ ids $ all)

let () = exit (Cmd.eval' cmd)
