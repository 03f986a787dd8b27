(* Impairment specifications: the parsed form of the `--impair` CLI
   grammar, and the robustness experiment's named profiles.

   Grammar:  spec    := "clean" | item ("+" item)*
             item    := name [":" kv ("," kv)*]
             kv      := key "=" float
             name    := gilbert | bernoulli | reorder | dup | corrupt
                      | jitter | outage | clamp | flap

   Channels (packet-level) accept `from=` / `until=` window keys in
   addition to their parameters; shapers (link-level schedule) are
   windows by construction. Examples:

     gilbert:p_gb=0.01,p_bg=0.3            bursty loss, default severity
     gilbert:from=8,until=10               loss burst from t=8s to t=10s
     reorder:p=0.1,depth=4+jitter          composition, left to right
     outage:at=8,for=2                     link dead for 2 s at t=8
     flap:period=6,duty=0.85               up 85% of each 6 s period
     clamp:from=5,until=15,factor=0.25     rate cut to a quarter

   [to_string] is canonical (defaults omitted, fixed key order) and
   round-trips through [of_string]. *)

type shaper =
  | Outage of { at : float; dur : float }
  | Clamp of { from_ : float; until : float; factor : float }
  | Flap of { from_ : float; until : float; period : float; duty : float }

type channel_item = { kind : Channel.kind; from_ : float; until : float }

type t = { channels : channel_item list; shapers : shaper list }

let empty = { channels = []; shapers = [] }
let is_empty s = s.channels = [] && s.shapers = []

(* Reordering at the sender's ACK stream: the reorder channel displaces
   packets directly; duplication and jitter deliver ACKs out of order
   too (a dup's late copy, unequal deferrals). Specs containing any of
   them want a TCP-style dup-ACK threshold. *)
let may_reorder s =
  List.exists
    (fun c ->
      match c.kind with
      | Channel.Reorder _ | Channel.Duplicate _ | Channel.Jitter _ -> true
      | Channel.Gilbert _ | Channel.Bernoulli _ | Channel.Corrupt _ -> false)
    s.channels

(* ---- defaults ---- *)

let default_gilbert =
  (* ~3.4% stationary loss in bursts of mean length 4. *)
  Channel.Gilbert { p_gb = 0.015; p_bg = 0.25; p_good = 0.0; p_bad = 0.6 }

let default_bernoulli = Channel.Bernoulli { p = 0.01 }
let default_reorder = Channel.Reorder { p = 0.08; depth = 4; max_hold = 0.2 }
let default_duplicate = Channel.Duplicate { p = 0.01 }
let default_corrupt = Channel.Corrupt { p = 0.01 }
let default_jitter = Channel.Jitter { max_delay = 0.012 }

(* ---- parsing (grammar in Grammar) ---- *)

let noun = "impairment"

let parse_item item =
  let ( let* ) = Result.bind in
  let* name, kvs = Grammar.item ~noun item in
  let lookup = Grammar.lookup kvs in
  let check allowed = Grammar.check_keys ~noun name kvs allowed in
  let channel allowed mk =
    let* () = check ("from" :: "until" :: allowed) in
    let from_, until = Grammar.window kvs in
    Ok (`Channel { kind = mk lookup; from_; until })
  in
  match name with
  | "gilbert" ->
    channel [ "p_gb"; "p_bg"; "p_good"; "p_bad" ] (fun g ->
        Channel.Gilbert
          {
            p_gb = g "p_gb" 0.015;
            p_bg = g "p_bg" 0.25;
            p_good = g "p_good" 0.0;
            p_bad = g "p_bad" 0.6;
          })
  | "bernoulli" ->
    channel [ "p" ] (fun g -> Channel.Bernoulli { p = g "p" 0.01 })
  | "reorder" ->
    channel [ "p"; "depth"; "max_hold" ] (fun g ->
        Channel.Reorder
          {
            p = g "p" 0.08;
            depth = max 1 (int_of_float (g "depth" 4.0));
            max_hold = g "max_hold" 0.2;
          })
  | "dup" -> channel [ "p" ] (fun g -> Channel.Duplicate { p = g "p" 0.01 })
  | "corrupt" -> channel [ "p" ] (fun g -> Channel.Corrupt { p = g "p" 0.01 })
  | "jitter" ->
    channel [ "max" ] (fun g -> Channel.Jitter { max_delay = g "max" 0.012 })
  | "outage" ->
    let* () = check [ "at"; "for" ] in
    Ok (`Shaper (Outage { at = lookup "at" 8.0; dur = lookup "for" 2.0 }))
  | "clamp" ->
    let* () = check [ "from"; "until"; "factor" ] in
    let from_, until = Grammar.window kvs in
    Ok (`Shaper (Clamp { from_; until; factor = lookup "factor" 0.25 }))
  | "flap" ->
    let* () = check [ "from"; "until"; "period"; "duty" ] in
    let from_, until = Grammar.window kvs in
    Ok
      (`Shaper
        (Flap { from_; until; period = lookup "period" 6.0; duty = lookup "duty" 0.85 }))
  | _ ->
    Grammar.fail
      "unknown impairment %S (known: gilbert, bernoulli, reorder, dup, \
       corrupt, jitter, outage, clamp, flap, clean)"
      name

let of_string s =
  Result.map
    (fun items ->
      let channels, shapers =
        List.partition_map
          (function `Channel c -> Left c | `Shaper sh -> Right sh)
          items
      in
      { channels; shapers })
    (Grammar.parse ~empty:"clean" ~prefix:"spec item" parse_item s)

let of_string_exn s =
  match of_string s with Ok t -> t | Error m -> invalid_arg m

(* ---- canonical printing ---- *)

let f = Grammar.num

let channel_to_string { kind; from_; until } =
  let kvs =
    match kind with
    | Channel.Gilbert { p_gb; p_bg; p_good; p_bad } ->
      [ "p_gb=" ^ f p_gb; "p_bg=" ^ f p_bg ]
      @ (if p_good <> 0.0 then [ "p_good=" ^ f p_good ] else [])
      @ [ "p_bad=" ^ f p_bad ]
    | Channel.Bernoulli { p } -> [ "p=" ^ f p ]
    | Channel.Reorder { p; depth; max_hold } ->
      [ "p=" ^ f p; "depth=" ^ string_of_int depth; "max_hold=" ^ f max_hold ]
    | Channel.Duplicate { p } -> [ "p=" ^ f p ]
    | Channel.Corrupt { p } -> [ "p=" ^ f p ]
    | Channel.Jitter { max_delay } -> [ "max=" ^ f max_delay ]
  in
  Grammar.item_to_string (Channel.kind_name kind) (kvs @ Grammar.window_kvs from_ until)

let shaper_to_string = function
  | Outage { at; dur } -> Grammar.item_to_string "outage" [ "at=" ^ f at; "for=" ^ f dur ]
  | Clamp { from_; until; factor } ->
    Grammar.item_to_string "clamp" (Grammar.window_kvs from_ until @ [ "factor=" ^ f factor ])
  | Flap { from_; until; period; duty } ->
    Grammar.item_to_string "flap"
      (Grammar.window_kvs from_ until @ [ "period=" ^ f period; "duty=" ^ f duty ])

let to_string s =
  Grammar.to_string ~empty:"clean" Fun.id
    (List.map channel_to_string s.channels @ List.map shaper_to_string s.shapers)

(* ---- named profiles for the robustness matrix ---- *)

let channel_only kind = { channels = [ { kind; from_ = 0.0; until = infinity } ]; shapers = [] }

let robustness_profiles =
  [
    ("clean", empty);
    ("bursty-loss", channel_only default_gilbert);
    ("reorder", channel_only default_reorder);
    ( "flap",
      {
        channels = [];
        shapers = [ Flap { from_ = 0.0; until = infinity; period = 6.0; duty = 0.85 } ];
      } );
    ("jitter", channel_only default_jitter);
  ]
