(* The command-line surface that libra_sim, experiments and train share
   (diverge and libra_search take --impair / --domains from here too):
   one declaration per shared flag, one validate-and-install step, one
   lane-keyed observability session and one end-of-run path. *)

open Cmdliner

(* ---- flags ---- *)

type t = {
  impair : string;
  chaos : string;
  chaos_seed : int;
  deadline_events : int option;
  domains : int option;
  invariants : string list;
  invariant_file : string option;
  trace_out : string option;
  trace_filter : string option;
  trace_sample : string option;
  metrics_out : string option;
  rollup_out : string option;
  rollup_window : float;
  flight_capacity : int;
  flight_dir : string option;
  profile_out : string option;
}

(* What a flag a binary does not offer reads as. *)
let none =
  {
    impair = "clean";
    chaos = "none";
    chaos_seed = 0;
    deadline_events = None;
    domains = None;
    invariants = [];
    invariant_file = None;
    trace_out = None;
    trace_filter = None;
    trace_sample = None;
    metrics_out = None;
    rollup_out = None;
    rollup_window = 0.1;
    flight_capacity = 0;
    flight_dir = None;
    profile_out = None;
  }

let file_opt name ~doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let impair =
  Arg.(
    value
    & opt string none.impair
    & info [ "impair" ] ~docv:"SPEC"
        ~doc:
          "fault-injection schedule for the simulated bottleneck: '+'-joined \
           items, each name[:k=v,..] -- gilbert, bernoulli, reorder, dup, \
           corrupt, jitter (packet channels; accept from=/until= windows) and \
           outage, clamp, flap (link-rate shapers); 'clean' disables. \
           Experiment scenarios that set their own impairment keep it.")

let chaos =
  Arg.(
    value
    & opt string none.chaos
    & info [ "chaos" ] ~docv:"SPEC"
        ~doc:
          "inject host faults into persistence (checkpoint cells, training \
           snapshots, trace/metrics/rollup exports, flight dumps) and the \
           domain pool ('+'-joined name[:k=v,..] items mirroring --impair): \
           $(b,torn) (crash mid-write), $(b,flip) (silent bit corruption, \
           caught by verify-on-read), $(b,enospc) (disk full after N bytes), \
           $(b,eio) (I/O errors), $(b,kill-domain) (pool worker death; tasks \
           are resurrected). Faults surface as structured errors and exit \
           code 6, never a crash. 'none' disables.")

let chaos_seed =
  Arg.(
    value & opt int none.chaos_seed
    & info [ "chaos-seed" ] ~docv:"N"
        ~doc:
          "seed for the deterministic chaos schedule: which operations fault \
           is a pure function of (seed, operation index)")

let deadline_events =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-events" ] ~docv:"N"
        ~doc:
          "deterministic deadline of $(docv) logical events (simulator pops / \
           training steps), reproducible across hosts: libra_sim exits 4, an \
           experiment attempt fails as 'deadline'")

let domains =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:"size of the domain pool (default: \\$LIBRA_DOMAINS or core count)")

let invariants =
  Arg.(
    value
    & opt_all string []
    & info [ "invariant" ] ~docv:"SPEC"
        ~doc:
          "check an invariant online over every run's event stream \
           (repeatable). $(docv) is \"NAME: always COND\", \"NAME: never \
           COND\", \"NAME: after COND eventually COND within N events|N s|N \
           rtt\" or \"NAME: after COND until COND expect COND\"; COND is \
           '&'-joined clauses like ev=enqueue, backlog<=150000, kind=link_up. \
           The word $(b,default) loads the default invariant pack. A \
           violation prints a report: libra_sim exits 5, an experiment fails \
           through the supervisor (exit 3).")

let invariant_file =
  file_opt "invariant-file"
    ~doc:
      "read invariant specs from $(docv), one per line ('#' comments); \
       combined with any --invariant flags"

(* The export flag's name is the caller's: libra_sim's --trace is its
   network trace, so its export is --trace-out. *)
let trace_out name =
  file_opt name
    ~doc:
      "export the event trace (simulation events; RL steps under train) to \
       $(docv) (.csv gets CSV, anything else JSONL); parallel runs are merged \
       as lanes in run order"

let trace_filter =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-filter" ] ~docv:"CAT,.."
        ~doc:
          "comma-separated event categories to record \
           (pkt,link,ack,rate,monitor,stage,cycle,rl,fault,invariant); \
           default all. --invariant widens the filter to whatever its specs \
           need.")

let trace_sample =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-sample" ] ~docv:"1/N"
        ~doc:
          "deterministic head-based flow sampling for the trace export: keep \
           every event of ~one flow in $(i,N), drop the rest. The kept set is \
           a pure function of the flow id (and libra_sim's --seed), \
           byte-identical at any --domains. Structural events (link, stage, \
           cycle, run, harness, invariant) are never dropped.")

let metrics_out = file_opt "metrics" ~doc:"export the metrics registry as CSV"

let rollup_out =
  file_opt "rollup-out"
    ~doc:
      "export fixed-window rollups of the event stream (per-window queue \
       min/mean/max, drops, delivered bytes, rate and utility aggregates) to \
       $(docv) (.csv gets CSV, anything else JSONL), runs merged as lanes in \
       run order: a dense time-series orders of magnitude smaller than the \
       full trace"

let rollup_window =
  Arg.(
    value
    & opt float none.rollup_window
    & info [ "rollup-window" ] ~docv:"SECONDS"
        ~doc:"rollup window length in simulation seconds (default 0.1)")

let flight_capacity =
  Arg.(
    value & opt int 2048
    & info [ "flight" ] ~docv:"N"
        ~doc:
          "keep a per-run flight recorder of the last $(docv) events (default \
           2048), dumped on supervised failures and at the first invariant \
           violation. 0 disables.")

let flight_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-dir" ] ~docv:"DIR"
        ~doc:"directory for flight-recorder dumps (default: the temp dir)")

let profile_out =
  file_opt "profile"
    ~doc:
      "record a host-time span profile per run and write it as JSON to \
       $(docv) (render with perf_report --profile)"

(* The three flag sets: train's exports, libra_sim's run flags, and
   experiments' full set. *)
let exports_term ~trace =
  Term.(
    const (fun chaos chaos_seed trace_out trace_filter metrics_out ->
        { none with chaos; chaos_seed; trace_out; trace_filter; metrics_out })
    $ chaos $ chaos_seed $ trace_out trace $ trace_filter $ metrics_out)

let run_term ~trace =
  Term.(
    const
      (fun base impair deadline_events invariants invariant_file trace_sample
           rollup_out rollup_window flight_capacity flight_dir ->
        {
          base with
          impair;
          deadline_events;
          invariants;
          invariant_file;
          trace_sample;
          rollup_out;
          rollup_window;
          flight_capacity;
          flight_dir;
        })
    $ exports_term ~trace $ impair $ deadline_events $ invariants
    $ invariant_file $ trace_sample $ rollup_out $ rollup_window
    $ flight_capacity $ flight_dir)

let all_term ~trace =
  Term.(
    const (fun base profile_out domains -> { base with profile_out; domains })
    $ run_term ~trace $ profile_out $ domains)

(* ---- validate and install ---- *)

let usage_error fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline m;
      exit 2)
    fmt

let impair_spec s =
  match Faults.Spec.of_string s with Ok s -> s | Error m -> usage_error "%s" m

let set_domains = function
  | Some d when d < 1 -> usage_error "invalid --domains %d (want a positive integer)" d
  | d -> Option.iter Exec.Pool.set_default_size d

type installed = {
  flags : t;
  impair_spec : Faults.Spec.t;
  sample : Obs.Sample.t option;
}

(* Check every shared flag (malformed values exit 2), then size the
   pool, install the chaos schedule and point flight dumps at
   --flight-dir. [seed] keys --trace-sample's flow choice. *)
let install ?seed flags =
  set_domains flags.domains;
  let impair_spec = impair_spec flags.impair in
  (match Chaos.Spec.of_string flags.chaos with
  | Ok s -> Chaos.Plane.install ~seed:flags.chaos_seed s
  | Error m -> usage_error "%s" m);
  let sample =
    Option.map
      (fun spec ->
        match Obs.Sample.parse ?seed spec with
        | Ok s -> s
        | Error m -> usage_error "--trace-sample: %s" m)
      flags.trace_sample
  in
  if flags.rollup_window <= 0.0 then usage_error "--rollup-window: must be positive";
  Option.iter Obs.Flight.set_dump_dir flags.flight_dir;
  { flags; impair_spec; sample }

(* Manifest members every binary records for its own flags. *)
let manifest_extra v =
  match v.sample with
  | None -> []
  | Some s -> [ ("trace_sample", Obs.Json.Str (Obs.Sample.to_string s)) ]

(* --invariant SPECs ("default" expands to the default pack, bounded by
   [buffer_bytes] when the caller has one) plus --invariant-file lines,
   compiled in argument order. *)
let invariant_specs ?buffer_bytes flags =
  let from_file =
    match flags.invariant_file with
    | None -> []
    | Some path -> (
      match In_channel.with_open_text path In_channel.input_all with
      | text -> String.split_on_char '\n' text
      | exception Sys_error e -> usage_error "--invariant-file: %s" e)
  in
  try
    List.concat_map
      (fun spec ->
        if String.trim spec = "default" then Check.Spec.default_pack ?buffer_bytes ()
        else [ Check.Spec.parse spec ])
      flags.invariants
    @ Check.Spec.parse_lines from_file
  with Check.Spec.Parse_error m -> usage_error "--invariant: %s" m

(* --trace-filter, widened to whatever the invariant specs need. *)
let categories ~trace_filter specs =
  let categories =
    match trace_filter with
    | None -> Obs.Category.all
    | Some spec -> Obs.Category.parse_filter spec
  in
  match specs with
  | [] -> categories
  | specs -> (
    match Check.Spec.categories_of_pack specs with
    | None -> Obs.Category.all
    | Some needed -> List.sort_uniq compare (categories @ needed))

(* ---- the observability session ---- *)

module Session = struct
  (* What one lane (an experiment index, or lane 0 for a single run)
     records besides its tracer lane. *)
  type lane = {
    reg : Obs.Metrics.registry;
    checker : Check.Checker.t option;
    rollup : Obs.Rollup.t option;
  }

  type recording = {
    tracer : Obs.Trace.t;
    spans : Obs.Span.t option;
    specs : Check.Spec.t list;  (* [] = no checking *)
    lanes : (int, lane) Hashtbl.t;
    lock : Mutex.t;
  }

  type nonrec t = {
    flags : t;
    manifest : Obs.Json.t;
    rtt : float option;
    flight : Obs.Flight.t option;
    recording : recording option;  (* None: nothing exported or checked *)
  }

  (* [rtt] scales the checkers' `within N rtt` windows; [buffer_bytes]
     bounds the default pack's queue. *)
  let create ?rtt ?buffer_bytes ~manifest (v : installed) =
    let flags = v.flags in
    let specs = invariant_specs ?buffer_bytes flags in
    let recording =
      match (flags.trace_out, flags.metrics_out, flags.profile_out, flags.rollup_out, specs)
      with
      | None, None, None, None, [] -> None
      | _ ->
        (* Only a trace export reads retained events; metrics, rollups
           and checkers consume them online, so a small ring bounds
           memory. *)
        let ring_capacity = if flags.trace_out = None then Some 4096 else None in
        Some
          {
            tracer =
              Obs.Trace.create ?ring_capacity ?sample:v.sample
                ~categories:(categories ~trace_filter:flags.trace_filter specs)
                ~manifest ();
            spans = (if flags.profile_out = None then None else Some (Obs.Span.create ()));
            specs;
            lanes = Hashtbl.create 8;
            lock = Mutex.create ();
          }
    in
    let flight =
      if flags.flight_capacity <= 0 then None
      else Some (Obs.Flight.create ~capacity:flags.flight_capacity ())
    in
    { flags; manifest; rtt; flight; recording }

  (* Run [f] as lane [lane] under the flight ring, the tracer lane, the
     span lane, a metrics registry, the ambient rollup and checker.
     Lanes must be chosen deterministically (pool task indices); safe
     to call from pool domains. *)
  let wrap t ~lane f =
    let inner () =
      match t.recording with
      | None -> f ()
      | Some r ->
        let reg = Obs.Metrics.create_registry () in
        (* One checker and one rollup per lane, keyed like the tracer's
           lanes, so verdicts and windows are pool-size-deterministic. *)
        let checker =
          if r.specs = [] then None else Some (Check.Checker.create ?rtt:t.rtt r.specs)
        in
        let rollup =
          Option.map
            (fun _ -> Obs.Rollup.create ~window:t.flags.rollup_window ())
            t.flags.rollup_out
        in
        Mutex.protect r.lock (fun () -> Hashtbl.replace r.lanes lane { reg; checker; rollup });
        let run =
          match checker with Some c -> fun () -> Check.Runtime.with_checker c f | None -> f
        in
        let run =
          match rollup with Some ro -> fun () -> Obs.Rollup.with_ambient ro run | None -> run
        in
        let run () = Obs.Metrics.run reg run in
        let run =
          match r.spans with Some sp -> fun () -> Obs.Span.run sp ~lane run | None -> run
        in
        let observer =
          match (rollup, checker) with
          | None, None -> None
          | Some ro, None -> Some (Obs.Rollup.observe ro)
          | None, Some c -> Some (Check.Checker.on_event c)
          | Some ro, Some c ->
            let check = Check.Checker.on_event c in
            Some
              (fun ev ->
                Obs.Rollup.observe ro ev;
                check ev)
        in
        Obs.Trace.run r.tracer ~lane ?observer run
    in
    match t.flight with Some fl -> Obs.Flight.run fl ~lane inner | None -> inner ()

  let lanes r =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Mutex.protect r.lock (fun () -> Hashtbl.fold (fun k l acc -> (k, l) :: acc) r.lanes []))

  let lane_items r get = List.filter_map (fun (k, l) -> Option.map (fun x -> (k, x)) (get l)) (lanes r)

  (* Write every requested export, lanes merged in lane order, and
     print one summary line per export. An injected host fault on an
     export is named on stderr, never raised; {!finish} turns it into
     exit 6. [lane_name] labels profile groups. *)
  let export ?(lane_name = string_of_int) t =
    match t.recording with
    | None -> ()
    | Some r -> (
      let flags = t.flags in
      try
        Option.iter (Obs.Trace.write r.tracer) flags.trace_out;
        Option.iter
          (fun file ->
            let rollups = lane_items r (fun l -> l.rollup) in
            Obs.Rollup.write ~manifest:t.manifest ~lanes:rollups file;
            let windows = List.fold_left (fun acc (_, ro) -> acc + Obs.Rollup.windows ro) 0 rollups in
            Printf.printf "rollup: %d window(s) over %d lane(s) -> %s\n" windows
              (List.length rollups) file)
          flags.rollup_out;
        Option.iter
          (fun file ->
            let merged = Obs.Metrics.create_registry () in
            List.iter (fun (_, l) -> Obs.Metrics.merge ~into:merged l.reg) (lanes r);
            Obs.Metrics.write_csv merged file)
          flags.metrics_out;
        (match (r.spans, flags.profile_out) with
        | Some sp, Some file ->
          let groups =
            List.map (fun (lane, trees) -> (lane_name lane, trees)) (Obs.Span.lanes_json sp)
          in
          let doc =
            Obs.Json.Obj
              [
                ("profile", Obs.Json.Num 1.0);
                ("manifest", t.manifest);
                ("groups", Obs.Json.Obj groups);
              ]
          in
          Chaos.Io.write_file file (Obs.Json.to_string doc ^ "\n");
          Printf.printf "profile: %d group(s) -> %s\n" (List.length groups) file
        | _ -> ());
        Option.iter
          (fun file -> Printf.printf "trace: %d events -> %s\n" (Obs.Trace.length r.tracer) file)
          flags.trace_out
      with Chaos.Io.Fault { fault; path; detail } ->
        Printf.eprintf "[chaos] export fault: %s at %s (%s)\n%!" fault path detail)

  (* Each lane's checker, in lane order. *)
  let checkers t = match t.recording with None -> [] | Some r -> lane_items r (fun l -> l.checker)

  (* The lane-ordered invariant summary on stderr (byte-identical at
     any pool size) and the report of every lane that failed. *)
  let report_invariants ?(lane_name = string_of_int) t =
    match t.recording with
    | Some r when r.specs <> [] ->
      let cs = checkers t in
      let events, viols =
        List.fold_left
          (fun (e, v) (_, c) -> (e + Check.Checker.events_seen c, v + Check.Checker.total c))
          (0, 0) cs
      in
      Printf.eprintf "[invariants] %d spec(s) over %d lane(s): %d violation(s) in %d event(s)\n%!"
        (List.length r.specs) (List.length cs) viols events;
      List.iter
        (fun (lane, c) ->
          if Check.Checker.total c > 0 then begin
            Printf.eprintf "[invariants] lane %s:\n" (lane_name lane);
            prerr_string (Check.Checker.report c)
          end)
        cs
    | _ -> ()
end

(* ---- end of run ---- *)

(* Summarize what the chaos plane injected and the harness detected,
   then pick the exit code: a failing [status] stands; otherwise any
   fault surfaced to a caller, or any corrupt checkpoint detected (chaos
   installed or not), turns a clean exit into 6, so CI can tell
   "results fine, host faulty" from success and from failure. *)
let finish status =
  let surfaced = Chaos.Plane.surfaced () in
  let corrupt_detected = Chaos.Plane.corrupt_detected () in
  if Chaos.Plane.active () || surfaced > 0 || corrupt_detected > 0 then begin
    let st = Chaos.Plane.stats () in
    Printf.eprintf
      "[chaos] injected: torn=%d flip=%d enospc=%d eio=%d kill=%d; healed: \
       resurrected=%d respawned=%d; surfaced=%d corrupt-detected=%d\n%!"
      st.Chaos.Plane.torn st.Chaos.Plane.flips st.Chaos.Plane.enospc
      st.Chaos.Plane.eio st.Chaos.Plane.kills st.Chaos.Plane.resurrections
      st.Chaos.Plane.respawns surfaced corrupt_detected
  end;
  if status <> 0 then status else if surfaced > 0 || corrupt_detected > 0 then 6 else 0
