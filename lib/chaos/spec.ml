(* Host-fault chaos specifications: the parsed form of the `--chaos`
   CLI grammar, mirroring `--impair` (lib/faults/spec.ml).

   Where `--impair` attacks the simulated network, `--chaos` attacks
   the *host* that the harness persists through: checkpoint saves,
   policy snapshots, flight dumps and trace/rollup exports. Each item
   is a fault class over the I/O plane (Chaos.Io) or the domain pool:

     torn:p=0.3,keep=0.5      a write "crashes" after keep of its bytes:
                              the temp file is left torn, the rename
                              never happens, the caller gets a
                              structured fault
     flip:bytes=2,p=0.1       silent corruption: the write succeeds but
                              [bytes] deterministic byte positions are
                              flipped (caught by verify-on-read)
     enospc:after=4096        the disk fills: writes succeed for the
                              first [after] bytes, then fail ENOSPC
     eio:p=0.05               a read or write fails with EIO
     kill-domain:p=0.25       a pool task's domain dies before the task
                              runs; the pool resurrects the task on a
                              surviving domain

   I/O items take `from=` / `until=` windows over the plane's write
   operation index (0-based); kill-domain windows range over the pool's
   task sequence number. [to_string] is canonical (defaults omitted,
   fixed key order) and round-trips through [of_string]. *)

type item =
  | Torn of { p : float; keep : float }
      (* write aborted after [keep] of the payload, temp file left *)
  | Flip of { p : float; bytes : int }  (* silent byte flips, write "succeeds" *)
  | Enospc of { after : int }  (* byte budget before the disk is full *)
  | Eio of { p : float }  (* read/write error *)
  | Kill_domain of { p : float }  (* pool task's domain dies pre-task *)

type windowed = { item : item; from_ : float; until : float }

type t = { items : windowed list }

let empty = { items = [] }
let is_empty s = s.items = []

let has_kill s =
  List.exists (fun w -> match w.item with Kill_domain _ -> true | _ -> false) s.items

(* ---- parsing (grammar in Grammar, shared with Faults.Spec) ---- *)

let parse_item item =
  let ( let* ) = Result.bind in
  let* name, kvs = Grammar.item ~noun:"chaos" item in
  let windowed allowed mk =
    let* () = Grammar.check_keys ~noun:"chaos" name kvs ("from" :: "until" :: allowed) in
    let from_, until = Grammar.window kvs in
    Ok { item = mk (Grammar.lookup kvs); from_; until }
  in
  match name with
  | "torn" ->
    windowed [ "p"; "keep" ] (fun g ->
        Torn { p = g "p" 1.0; keep = g "keep" 0.5 })
  | "flip" ->
    windowed [ "p"; "bytes" ] (fun g ->
        Flip { p = g "p" 1.0; bytes = max 1 (int_of_float (g "bytes" 1.0)) })
  | "enospc" ->
    windowed [ "after" ] (fun g ->
        Enospc { after = max 0 (int_of_float (g "after" 0.0)) })
  | "eio" -> windowed [ "p" ] (fun g -> Eio { p = g "p" 1.0 })
  | "kill-domain" -> windowed [ "p" ] (fun g -> Kill_domain { p = g "p" 0.5 })
  | _ ->
    Grammar.fail
      "unknown chaos fault %S (known: torn, flip, enospc, eio, kill-domain, \
       none)"
      name

let of_string s =
  Result.map
    (fun items -> { items })
    (Grammar.parse ~empty:"none" ~prefix:"chaos item" parse_item s)

let of_string_exn s =
  match of_string s with Ok t -> t | Error m -> invalid_arg m

(* ---- canonical printing ---- *)

let f = Grammar.num

let windowed_to_string { item; from_; until } =
  let name, kvs =
    match item with
    | Torn { p; keep } ->
      ( "torn",
        (if p <> 1.0 then [ "p=" ^ f p ] else [])
        @ if keep <> 0.5 then [ "keep=" ^ f keep ] else [] )
    | Flip { p; bytes } ->
      ( "flip",
        (if p <> 1.0 then [ "p=" ^ f p ] else [])
        @ if bytes <> 1 then [ "bytes=" ^ string_of_int bytes ] else [] )
    | Enospc { after } ->
      ("enospc", if after <> 0 then [ "after=" ^ string_of_int after ] else [])
    | Eio { p } -> ("eio", if p <> 1.0 then [ "p=" ^ f p ] else [])
    | Kill_domain { p } ->
      ("kill-domain", if p <> 0.5 then [ "p=" ^ f p ] else [])
  in
  Grammar.item_to_string name (kvs @ Grammar.window_kvs from_ until)

let to_string s = Grammar.to_string ~empty:"none" windowed_to_string s.items
