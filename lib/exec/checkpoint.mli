(** Content-addressed checkpoint store.

    Blobs filed under a digest of the identity of the work they capture
    (experiment id, scale, impair spec, provenance), so a resume can
    only ever find checkpoints from an identically-configured run.

    Every cell is a checksummed, version-stamped [Exec.Io] record
    written through the [Chaos.Io] plane: saves are atomic (temp file +
    fsync + rename), loads verify the envelope. A cell that fails
    verification is reported as {!Corrupt} — with the byte position and
    cause — to be quarantined and re-executed, never served silently.
    Opening a store sweeps temp files orphaned by an earlier crash. *)

type store

(** Open (creating directories as needed) a store rooted at [dir],
    sweeping any orphaned temp files a crash left behind. *)
val create : dir:string -> store

(** The same store with its loads and saves taken around the installed
    [Chaos.Plane]: no operation indices, no injected faults. Corrupt
    detections still count. *)
val off_plane : store -> store

val dir : store -> string

(** How many orphaned temp files the opening sweep removed. *)
val swept : store -> int

(** Digest identity [parts] into a store key (NUL-joined, so part
    boundaries can't collide). *)
val key : parts:string list -> string

(** The file a key maps to (for diagnostics / tests). *)
val path : store -> key:string -> string

type lookup =
  | Hit of string
  | Miss
  | Corrupt of { path : string; reason : string }
      (** envelope verification failed; [reason] carries the byte
          position and cause *)

(** Load and verify the cell for [key]. Raises [Chaos.Io.Fault] only
    for an injected read fault. *)
val load : store -> key:string -> lookup

(** Atomically save the sealed cell (raises [Chaos.Io.Fault] under an
    injected host fault). *)
val save : store -> key:string -> string -> unit

val mem : store -> key:string -> bool

(** Move a corrupt cell aside to [<cell>.corrupt] so the evidence
    survives while the key reads as [Miss] again. Returns the
    quarantine path; [None] if the rename failed. *)
val quarantine : store -> key:string -> string option
