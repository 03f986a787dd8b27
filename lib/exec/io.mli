(** Checksummed, version-stamped record envelope for harness
    persistence.

    [seal]/[unseal] wrap a payload in a one-line header carrying a
    magic string, a format version, the payload length and its MD5
    digest. [unseal] verifies all four and reports the first mismatch
    as a position-carrying {!corrupt} value — truncation, bit flips and
    garbage are detected, never served. Writes route through
    [Chaos.Io], so the atomic-write discipline and any installed fault
    schedule apply. *)

type corrupt = {
  path : string;
  offset : int;  (** byte offset of the first detected inconsistency *)
  reason : string;
}

type read_result = Hit of string | Miss | Corrupt of corrupt

val corrupt_to_string : corrupt -> string

(** Wrap [payload] in the versioned, checksummed envelope. *)
val seal : string -> string

(** Verify and strip the envelope; [Error] carries the position and
    reason of the first inconsistency. *)
val unseal : path:string -> string -> (string, corrupt) result

(** [write_record ~path payload] atomically writes the sealed record
    (raises [Chaos.Io.Fault] under an injected host fault). With
    [~plane:false] (here and in {!read_record}) the operation bypasses
    the installed [Chaos.Plane]. *)
val write_record : ?plane:bool -> path:string -> string -> unit

(** Read and verify a record. [Miss] when the file doesn't exist;
    [Corrupt] (counted on [Chaos.Plane]'s detection counter) when the
    envelope fails verification. Raises [Chaos.Io.Fault] only for an
    injected read fault. *)
val read_record : ?plane:bool -> string -> read_result
