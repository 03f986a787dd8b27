(* The injectable I/O plane all harness persistence routes through:
   checkpoint cells, training snapshots, flight dumps, trace/rollup/
   metrics exports.

   Discipline: every write is atomic — full contents to a same-directory
   temp file, an explicit fsync, then rename — so an interrupted or
   faulted write leaves either the previous file or an orphaned
   [.tmp], never a torn destination. (Orphans are swept by
   [sweep_tmp]; Exec.Checkpoint runs the sweep at store open.) Each
   writer (process, domain) has its own temp name, so concurrent
   writers of one destination never truncate each other's temp file:
   the last rename wins with a complete file.

   Fault injection: when a Chaos.Plane is installed, each operation
   consults it. An aborting fault (torn / enospc / eio) raises the
   structured {!Fault} exception naming the fault class — it never
   escapes as a bare [Sys_error] — while a [flip] fault corrupts the
   payload silently (the caller sees success; verify-on-read is the
   layer that catches it). A torn write simulates a crash: the partial
   temp file is deliberately left behind. Enospc/eio are *errors*, not
   crashes, so their temp files are cleaned up like any well-behaved
   caller would.

   [~plane:false] takes an operation around the installed plane: no
   operation index, no injected fault. The policy store uses it, so
   whether its entries are cold or warm cannot shift the fault
   schedule of the checkpoint writes that follow. *)

exception Fault of { fault : string; path : string; detail : string }

let () =
  Printexc.register_printer (function
    | Fault { fault; path; detail } ->
      Some (Printf.sprintf "Chaos.Io.Fault(%s, %s: %s)" fault path detail)
    | _ -> None)

let tmp_suffix = ".tmp"

(* This writer's temp file for [path]: unique per process and domain,
   still ending in [tmp_suffix] so the sweep recognises orphans. *)
let tmp_path path =
  Printf.sprintf "%s.%d.%d%s" path (Unix.getpid ()) (Domain.self () :> int) tmp_suffix

let raise_fault ~fault ~path ~detail =
  Plane.note_surfaced ();
  raise (Fault { fault; path; detail })

let fsync_out oc =
  try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()

(* Write [contents] to [path] atomically, applying any injected fault. *)
let write_file ?(atomic = true) ?(plane = true) path contents =
  let len = String.length contents in
  let dest = if atomic then tmp_path path else path in
  match if plane then Plane.on_write ~len else None with
  | Some Plane.W_enospc ->
    raise_fault ~fault:"enospc" ~path
      ~detail:(Printf.sprintf "disk full before %d byte(s)" len)
  | Some Plane.W_eio ->
    raise_fault ~fault:"eio" ~path ~detail:"injected I/O error"
  | Some (Plane.W_torn { keep_bytes }) ->
    (* Simulated crash mid-write: a prefix lands in the temp file and
       nothing else happens — no fsync, no rename, no cleanup. *)
    let oc = open_out_bin dest in
    output_substring oc contents 0 keep_bytes;
    close_out_noerr oc;
    raise_fault ~fault:"torn" ~path
      ~detail:(Printf.sprintf "write torn after %d of %d byte(s)" keep_bytes len)
  | fault ->
    let contents =
      match fault with
      | Some (Plane.W_flip { positions }) ->
        (* Silent corruption: flip one bit at each position; the write
           still reports success. *)
        let b = Bytes.of_string contents in
        List.iter
          (fun pos ->
            if pos >= 0 && pos < len then
              Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01)))
          positions;
        Bytes.unsafe_to_string b
      | _ -> contents
    in
    let oc = open_out_bin dest in
    (try
       output_string oc contents;
       fsync_out oc;
       close_out oc
     with e ->
       close_out_noerr oc;
       if atomic then (try Sys.remove dest with Sys_error _ -> ());
       raise e);
    if atomic then Sys.rename dest path;
    if plane then Plane.note_written len

(* Read [path] entirely; [None] when it doesn't exist. Injected read
   faults raise {!Fault} (structured), never a bare exception. *)
let read_file ?(plane = true) path =
  (match if plane then Plane.on_read () else None with
  | Some `Eio -> raise_fault ~fault:"eio" ~path ~detail:"injected read error"
  | None -> ());
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

(* Remove every orphaned temp file under [dir] (left by a crash or a
   torn write mid-save) and return how many were swept. Never raises:
   a vanished file or unreadable directory sweeps zero. *)
let sweep_tmp dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | files ->
    Array.fold_left
      (fun n f ->
        if Filename.check_suffix f tmp_suffix then (
          match Sys.remove (Filename.concat dir f) with
          | () -> n + 1
          | exception Sys_error _ -> n)
        else n)
      0 files
