(* Checksummed, version-stamped record envelope for harness
   persistence (checkpoint cells, training snapshots).

   A sealed record is

     %LIBRA-CKPT 1 len=<payload bytes> md5=<hex digest>\n<payload>

   [unseal] verifies the whole chain — magic, version, declared length,
   digest — and reports the first mismatch as a position-carrying
   {!corrupt} value instead of raising: a torn, truncated, bit-flipped
   or plain-garbage file is *detected* and named, never parsed by luck
   or served silently. Writes go through [Chaos.Io.write_file], so the
   atomic tmp+rename+fsync discipline (and any installed fault
   schedule) applies uniformly. *)

let magic = "%LIBRA-CKPT"
let version = 1

type corrupt = { path : string; offset : int; reason : string }

type read_result = Hit of string | Miss | Corrupt of corrupt

let corrupt_to_string { path; offset; reason } =
  Printf.sprintf "%s: corrupt record at byte %d: %s" path offset reason

let seal payload =
  Printf.sprintf "%s %d len=%d md5=%s\n%s" magic version (String.length payload)
    (Digest.to_hex (Digest.string payload))
    payload

let unseal ~path s =
  let fail offset reason = Error { path; offset; reason } in
  let mlen = String.length magic in
  if String.length s < mlen || String.sub s 0 mlen <> magic then
    fail 0 "bad magic (not a LIBRA-CKPT record)"
  else
    match String.index_opt s '\n' with
    | None -> fail (String.length s) "truncated header (no terminator)"
    | Some nl -> (
      let header = String.sub s 0 nl in
      match
        Scanf.sscanf_opt header "%s@ %d len=%d md5=%s" (fun _ v len md5 ->
            (v, len, md5))
      with
      | None -> fail 0 (Printf.sprintf "malformed header %S" header)
      | Some (v, _, _) when v <> version ->
        fail (mlen + 1) (Printf.sprintf "unsupported record version %d" v)
      | Some (_, len, md5) ->
        let body_off = nl + 1 in
        let actual = String.length s - body_off in
        if actual <> len then
          fail
            (body_off + min actual len)
            (Printf.sprintf "truncated payload: header declares %d byte(s), found %d"
               len actual)
        else
          let payload = String.sub s body_off len in
          if Digest.to_hex (Digest.string payload) <> md5 then
            fail body_off "checksum mismatch (payload corrupt)"
          else Ok payload)

let write_record ?plane ~path payload = Chaos.Io.write_file ?plane path (seal payload)

(* Read + verify. Detections are counted on the host-fault accounting
   plane (they drive exit code 6) whether or not chaos is installed —
   real disks corrupt bytes without being asked. *)
let read_record ?plane path =
  match Chaos.Io.read_file ?plane path with
  | None -> Miss
  | Some s -> (
    match unseal ~path s with
    | Ok payload -> Hit payload
    | Error c ->
      Chaos.Plane.note_corrupt_detected ();
      Corrupt c)
