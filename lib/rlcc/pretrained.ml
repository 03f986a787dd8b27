(* Policy cache: in-process, backed by an on-disk store.

   The paper trains its agents once, offline, and deploys them. Here a
   policy is a pure function of its training configuration (and of the
   code that trains it), so it is trained on first use and sealed into
   a content-addressed store; every later process loads it instead of
   retraining. All Libra variants in a bench share one "Libra" policy,
   all Orca flows share one "Orca" policy, and so on.

   The store. An entry is the final training snapshot ([episode =
   episodes]) as a checksummed Exec.Io record, filed under
   key("policy", config_key, code_id) where code_id digests the running
   executable — no rebuild is ever served a policy from other code. A
   hit verifies the envelope, parses the snapshot and resumes from it:
   [Train.run ~resume_from] runs zero episodes and rebuilds the outcome
   bit for bit. A miss trains and seals the final snapshot. A
   corrupt, unparseable or wrong-key entry is quarantined to [.corrupt]
   and retrained, never served. A failed save is logged and never fails
   the run.

   Equivalence. A hit must be indistinguishable from a fill everywhere
   but stderr: it charges the same [Netsim.Budget] ticks the fill would
   have (one per training step), so deadlines expire identically on a
   cold and a warm store; it runs unobserved like a fill; and its store
   I/O bypasses the installed Chaos.Plane, so a cold store's extra
   writes cannot shift a --chaos schedule. Each process-level
   acquisition prints one [policy] line on stderr — never on stdout,
   in a trace export or in the manifest.

   Experiments run on a domain pool, so the in-process cache must be
   safe to hit from several domains at once: a global lock guards the
   table of per-configuration cells, and each cell's own lock
   serialises the acquisition for that configuration. A domain asking
   for a policy another domain is already acquiring blocks on the cell
   (never the table), so distinct policies still train concurrently and
   every caller observes the one deterministic outcome. *)

type source = Hit | Miss | Corrupt | No_store

(* ---- the store ---- *)

(* Where the store lives, or why there is none. Read at every
   acquisition. *)
let store_dir () =
  let set v = match Sys.getenv_opt v with Some "" -> None | v -> v in
  let under cache = Ok (Filename.concat (Filename.concat cache "libra") "policies") in
  match Sys.getenv_opt "LIBRA_POLICY_DIR" with
  | Some "" -> Error "LIBRA_POLICY_DIR is empty"
  | Some dir -> Ok dir
  | None -> (
    match (set "XDG_CACHE_HOME", set "HOME") with
    | Some cache, _ -> under cache
    | None, Some home -> under (Filename.concat home ".cache")
    | None, None -> Error "neither XDG_CACHE_HOME nor HOME is set")

(* Opened stores and the code identity, resolved once per process under
   one lock (a Lazy forced from two domains at once would raise). A
   store is opened — and its orphaned temp files swept — once per
   directory, so one domain's open never sweeps another's in-flight
   save. *)
let store_lock = Mutex.create ()
let stores : (string, (Exec.Checkpoint.store, string) result) Hashtbl.t = Hashtbl.create 2
let code_digest = ref None

let code_id () =
  match !code_digest with
  | Some id -> id
  | None ->
    let id =
      try Ok (Digest.to_hex (Digest.file Sys.executable_name))
      with Sys_error m -> Error m
    in
    code_digest := Some id;
    id

let open_store dir =
  match Hashtbl.find_opt stores dir with
  | Some s -> s
  | None ->
    let s =
      try
        let st = Exec.Checkpoint.create ~dir in
        if not (Sys.is_directory dir) then Error (dir ^ ": not a directory")
        else (
          Unix.access dir [ Unix.W_OK ];
          Ok (Exec.Checkpoint.off_plane st))
      with
      | Unix.Unix_error (e, _, _) -> Error (dir ^ ": " ^ Unix.error_message e)
      | Sys_error m -> Error m
    in
    Hashtbl.replace stores dir s;
    s

(* The opened store and [cfg]'s entry key in it, or why there is none. *)
let entry ?code_id:id cfg =
  Result.bind (store_dir ()) (fun dir ->
      Mutex.protect store_lock (fun () ->
          Result.bind (open_store dir) (fun st ->
              Result.map
                (fun code_id ->
                  (st, Exec.Checkpoint.key ~parts:[ "policy"; Train.config_key cfg; code_id ]))
                (match id with Some id -> Ok id | None -> code_id ()))))

(* Masked like a fill: tracing this would attribute the events to
   whichever caller missed the cache first, which is
   scheduling-dependent under the pool. `train --trace` sees RL steps
   because it calls Train.run directly. *)
let unobserved f =
  Obs.Trace.unobserved (fun () ->
      Obs.Metrics.unobserved (fun () -> Obs.Span.unobserved f))

let acquire ?code_id cfg =
  let key = entry ?code_id cfg in
  let source, resume_from, note =
    match key with
    | Error why -> (No_store, None, Printf.sprintf " (no store: %s)" why)
    | Ok (st, key) -> (
      match Train.load_snapshot st ~key cfg with
      | Train.Loaded s -> (Hit, Some s, "")
      | Train.Absent -> (Miss, None, "")
      | Train.Rejected { reason; quarantined; _ } ->
        ( Corrupt,
          None,
          Printf.sprintf " (CORRUPT %s%s)" reason
            (match quarantined with
            | Some q -> "; quarantined to " ^ q
            | None -> "") )
      | exception Sys_error m -> (Miss, None, Printf.sprintf " (unreadable: %s)" m))
  in
  (* Charge the ticks the skipped episodes would have: a hit expires a
     deadline exactly where the fill would. *)
  Option.iter
    (fun s ->
      for _ = 1 to Train.snapshot_next s * cfg.Train.steps_per_episode do
        Netsim.Budget.tick ()
      done)
    resume_from;
  let final = ref None in
  let outcome =
    unobserved (fun () ->
        Train.run ~snapshot_every:cfg.Train.episodes
          ~on_snapshot:(fun ~episode:_ s -> final := Some s)
          ?resume_from cfg)
  in
  (* Only a run that trained to the end has a final snapshot to seal; a
     fill that died raised above and wrote nothing. *)
  let note =
    match (key, !final) with
    | Ok (st, key), Some s -> (
      match Train.save_snapshot st ~key s with
      | () -> note
      | exception Sys_error m -> note ^ Printf.sprintf " (not saved: %s)" m)
    | _ -> note
  in
  let path = match key with Ok (st, key) -> Exec.Checkpoint.path st ~key | Error _ -> "-" in
  prerr_string
    (Printf.sprintf "[policy] %s %s %s%s\n"
       (match source with
       | Hit -> "hit"
       | Miss | No_store -> "miss"
       | Corrupt -> "corrupt")
       (Train.config_key cfg) path note);
  flush stderr;
  (outcome, source)

(* ---- the in-process cache ---- *)

type cell = { lock : Mutex.t; mutable outcome : Train.outcome option }

let table_lock = Mutex.create ()
let cache : (string, cell) Hashtbl.t = Hashtbl.create 8

let get cfg =
  let k = Train.config_key cfg in
  let cell =
    Mutex.lock table_lock;
    let cell =
      match Hashtbl.find_opt cache k with
      | Some cell -> cell
      | None ->
        let cell = { lock = Mutex.create (); outcome = None } in
        Hashtbl.replace cache k cell;
        cell
    in
    Mutex.unlock table_lock;
    cell
  in
  Mutex.lock cell.lock;
  match cell.outcome with
  | Some outcome ->
    Mutex.unlock cell.lock;
    outcome
  | None -> (
    match acquire cfg with
    | outcome, _ ->
      cell.outcome <- Some outcome;
      Mutex.unlock cell.lock;
      outcome
    | exception e ->
      (* A failed fill must not poison the cache: drop the in-flight
         cell (it is still empty) before re-raising, so the next caller
         for this configuration retrains instead of finding a cell that
         will never be populated. A waiter already blocked on this cell
         retrains into the orphaned cell itself — same deterministic
         outcome, just unshared. *)
      Mutex.lock table_lock;
      (match Hashtbl.find_opt cache k with
      | Some c when c == cell -> Hashtbl.remove cache k
      | _ -> ());
      Mutex.unlock table_lock;
      Mutex.unlock cell.lock;
      raise e)

(* The agents used by the evaluation experiments: trained on the
   randomized environment (the paper's training setup). *)
let eval_episodes = ref 400

let libra_policy () =
  get
    {
      Train.default_config with
      state_set = Features.libra;
      env_mode = `Randomized;
      episodes = !eval_episodes;
      seed = 41;
    }

let aurora_policy () =
  get
    {
      Train.default_config with
      state_set = Features.aurora;
      action = Actions.Mimd_aurora 5.0;
      env_mode = `Randomized;
      episodes = !eval_episodes;
      seed = 43;
    }

let orca_policy () =
  get
    {
      Train.default_config with
      state_set = Features.orca;
      action = Actions.Mimd_orca;
      env_mode = `Randomized;
      episodes = !eval_episodes;
      seed = 47;
    }

let modified_rl_policy () =
  get
    {
      Train.default_config with
      state_set = Features.libra;
      reward = Reward.modified_rl;
      env_mode = `Randomized;
      episodes = !eval_episodes;
      seed = 53;
    }

(* Acquire the four evaluation policies concurrently (they are
   independent); later [get] calls from any domain hit the cache. *)
let warm ?pool () =
  let pool = match pool with Some p -> p | None -> Exec.Pool.default () in
  ignore
    (Exec.Pool.map pool
       (fun train -> ignore (train ()))
       [| libra_policy; aurora_policy; orca_policy; modified_rl_policy |])
