(* The item grammar shared by `--impair` (Faults.Spec) and `--chaos`
   (Chaos.Spec):

     spec := empty-word | item ("+" item)*
     item := name [":" kv ("," kv)*]
     kv   := key "=" float

   This module is the grammar alone: splitting, number parsing, key
   checking, positioned errors and canonical `%g` printing. Each spec
   keeps its own item table. [noun] ("impairment", "chaos") and
   [prefix] ("spec item", "chaos item") name the grammar in errors. *)

type kvs = (string * float) list

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

(* Split ["name:k=v,.."] and parse every value as a float. *)
let item ~noun s =
  let name, raw =
    match String.index_opt s ':' with
    | None -> (s, [])
    | Some i ->
      ( String.sub s 0 i,
        String.split_on_char ',' (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  let rec go acc = function
    | [] -> Ok (name, List.rev acc)
    | kv :: rest -> (
      match String.index_opt kv '=' with
      | None -> fail "%s %s: expected key=value, got %S" noun name kv
      | Some i -> (
        let key = String.sub kv 0 i in
        let v = String.sub kv (i + 1) (String.length kv - i - 1) in
        match float_of_string_opt v with
        | None -> fail "%s key %s: %S is not a number" noun key v
        | Some f -> go ((key, f) :: acc) rest))
  in
  go [] raw

let lookup (kvs : kvs) key default = Option.value ~default (List.assoc_opt key kvs)

let check_keys ~noun name (kvs : kvs) allowed =
  match List.find_opt (fun (k, _) -> not (List.mem k allowed)) kvs with
  | Some (k, _) ->
    fail "%s %s: unknown key %S (expected one of: %s)" noun name k
      (String.concat ", " allowed)
  | None -> Ok ()

(* The [from=]/[until=] window of an item; the whole run by default. *)
let window kvs = (lookup kvs "from" 0.0, lookup kvs "until" infinity)

(* Parse a '+'-joined spec; [empty] (or the empty string) is no items.
   A failing item is prefixed with its 1-based position and text, so a
   malformed spec pinpoints itself in a long log. *)
let parse ~empty ~prefix parse_item s =
  let s = String.trim s in
  if s = "" || s = empty then Ok []
  else
    let rec go acc pos = function
      | [] -> Ok (List.rev acc)
      | item :: rest -> (
        let item = String.trim item in
        match parse_item item with
        | Error m -> fail "%s %d (%S): %s" prefix pos item m
        | Ok x -> go (x :: acc) (pos + 1) rest)
    in
    go [] 1 (String.split_on_char '+' s)

(* ---- canonical printing ---- *)

let num = Printf.sprintf "%g"

let window_kvs from_ until =
  (if from_ <> 0.0 then [ "from=" ^ num from_ ] else [])
  @ if until <> infinity then [ "until=" ^ num until ] else []

let item_to_string name kvs =
  if kvs = [] then name else name ^ ":" ^ String.concat "," kvs

let to_string ~empty item_to_string = function
  | [] -> empty
  | items -> String.concat "+" (List.map item_to_string items)
