(* Content-addressed checkpoint store.

   A checkpoint is a blob of bytes filed under a key derived from the
   *identity* of the work it captures — for an experiment cell:
   (experiment id, scale, impair spec, provenance manifest fields)
   digested to hex. Any change to the identity changes the key, so a
   resume can never pick up a checkpoint from a differently-configured
   run: stale checkpoints are simply never found.

   Every cell is a checksummed, version-stamped Exec.Io record written
   through the Chaos.Io plane: writes are atomic (temp file + fsync +
   rename in the same directory), and reads verify the envelope, so a
   run killed mid-save leaves either the previous checkpoint or an
   orphaned temp file — never a torn cell served as truth. Opening a
   store sweeps the orphans a crash (or an injected torn write) left
   behind, and a cell that fails verification is reported as
   {!Corrupt}, to be quarantined with {!quarantine} and re-executed by
   the caller — never served silently. *)

type store = { dir : string; swept : int; plane : bool }

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ~dir =
  mkdir_p dir;
  (* Startup sweep: remove temp files orphaned by a mid-write kill so
     they can't accumulate across crashy runs. *)
  { dir; swept = Chaos.Io.sweep_tmp dir; plane = true }

let off_plane s = { s with plane = false }

let dir s = s.dir
let swept s = s.swept

(* Digest the identity parts into the store key. Parts are joined with
   NUL so ["ab"; "c"] and ["a"; "bc"] can't collide. *)
let key ~parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let path s ~key = Filename.concat s.dir (key ^ ".ckpt")

type lookup =
  | Hit of string
  | Miss
  | Corrupt of { path : string; reason : string }
      (* verification failed: [reason] carries the byte position and
         cause; the cell must be quarantined and re-executed *)

let load s ~key =
  match Io.read_record ~plane:s.plane (path s ~key) with
  | Io.Hit payload -> Hit payload
  | Io.Miss -> Miss
  | Io.Corrupt c ->
    Corrupt
      {
        path = c.Io.path;
        reason = Printf.sprintf "at byte %d: %s" c.Io.offset c.Io.reason;
      }

let save s ~key contents = Io.write_record ~plane:s.plane ~path:(path s ~key) contents

let mem s ~key = Sys.file_exists (path s ~key)

(* Move a corrupt cell aside (same directory, `.corrupt` suffix) so the
   evidence survives while the key reads as Miss again. Never raises;
   returns the quarantine path on success. *)
let quarantine s ~key =
  let p = path s ~key in
  let q = p ^ ".corrupt" in
  match Sys.rename p q with
  | () -> Some q
  | exception Sys_error _ -> None
