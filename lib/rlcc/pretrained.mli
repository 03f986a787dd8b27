(** Policy cache: policies are trained on first use, keyed by their full
    training configuration, and shared across all CCA instances in the
    process. Behind the in-process cache sits an on-disk store of
    sealed final training snapshots, so a policy is trained once per
    build and loaded (bit-identically) by every later process.

    The store lives in [LIBRA_POLICY_DIR], by default
    [$XDG_CACHE_HOME/libra/policies], else [$HOME/.cache/libra/policies];
    the empty value, or a directory that cannot be created or written,
    means no store. Entries are keyed by the training configuration and
    a digest of the running executable. A hit charges the same
    [Netsim.Budget] ticks and runs as unobserved as a fill; store I/O
    bypasses the installed [Chaos.Plane]; a corrupt entry is
    quarantined and retrained (counted as a corrupt detection); a
    failed save never fails the run. Each acquisition prints one line,
    [[policy] hit|miss|corrupt <config_key> <path>], on stderr. *)

(** How an acquisition was satisfied. *)
type source =
  | Hit  (** loaded from the store *)
  | Miss  (** trained, then sealed into the store *)
  | Corrupt  (** the entry failed verification: quarantined, retrained, resealed *)
  | No_store  (** trained; no usable store *)

(** One acquisition through the store, bypassing the in-process cache.
    [code_id] overrides the executable digest the entry is keyed by. *)
val acquire : ?code_id:string -> Train.config -> Train.outcome * source

(** Fetch the policy for a configuration: from this process's cache,
    else through {!acquire}. *)
val get : Train.config -> Train.outcome

(** Episode budget used for the evaluation agents below; the harness
    scale sets it. *)
val eval_episodes : int ref

(** The agents used by the paper's evaluation experiments, trained on
    the randomized environment. *)
val libra_policy : unit -> Train.outcome

val aurora_policy : unit -> Train.outcome
val orca_policy : unit -> Train.outcome
val modified_rl_policy : unit -> Train.outcome

(** Acquire all four evaluation policies concurrently on [pool]
    (default: the shared pool), so a following parallel experiment
    fan-out starts from a warm cache instead of duplicating training. *)
val warm : ?pool:Exec.Pool.t -> unit -> unit
