(* diverge: find the first diverging event between two runs that should
   be byte-identical.

     diverge --trace wired:24 --cca c-libra         # pool 1 vs pool 4
     diverge --loss 0.02 -b bump-seed=1             # a real divergence
     diverge -b perturb=25                          # self-test: inject at 25

   Both variants re-run the same scenario with lane-ordered event
   capture (lanes = repetition indices, deterministic at any pool
   size), reduce each stream to a chain of running digests, and
   binary-search to the first diverging event (Check.Bisect). The
   report is one screen: the index, both events, and the surrounding
   window of each stream.

   Variant overrides (-a / -b, comma-joined k=v):
     seed=N                base seed          (default: the --seed flag)
     domains=N             pool size          (defaults: a=1, b=4)
     bump-seed=K           bump repetition K's seed by 1 (a real divergence)
     perturb=N             append a marker to captured event N (self-test
                           knob: the bisector must report exactly N)

   Exit: 0 byte-identical, 1 diverged, 2 usage. *)

open Cmdliner

type variant = {
  tag : string;  (* "A" | "B" *)
  seed : int;
  domains : int;
  bump_seed : int option;
  perturb : int option;
}

let variant_label v =
  Printf.sprintf "%s(seed=%d,domains=%d%s%s)" v.tag v.seed v.domains
    (match v.bump_seed with Some k -> Printf.sprintf ",bump-seed=%d" k | None -> "")
    (match v.perturb with Some n -> Printf.sprintf ",perturb=%d" n | None -> "")

let parse_variant ~defaults spec =
  String.split_on_char ',' spec
  |> List.filter (fun tok -> String.trim tok <> "")
  |> List.fold_left
       (fun v tok ->
         let tok = String.trim tok in
         match String.index_opt tok '=' with
         | None ->
           Printf.eprintf "bad variant item %S (want key=value)\n" tok;
           exit 2
         | Some i ->
           let key = String.sub tok 0 i in
           let value = String.sub tok (i + 1) (String.length tok - i - 1) in
           let int_v () =
             match int_of_string_opt value with
             | Some n -> n
             | None ->
               Printf.eprintf "bad variant item %S (want an integer)\n" tok;
               exit 2
           in
           (match key with
           | "seed" -> { v with seed = int_v () }
           | "domains" ->
             let d = int_v () in
             if d < 1 then begin
               Printf.eprintf "bad domains %d (want >= 1)\n" d;
               exit 2
             end;
             { v with domains = d }
           | "bump-seed" | "bump_seed" -> { v with bump_seed = Some (int_v ()) }
           | "perturb" -> { v with perturb = Some (int_v ()) }
           | _ ->
             Printf.eprintf
               "unknown variant key %S (seed, domains, bump-seed, perturb)\n"
               key;
             exit 2))
       defaults

(* Run one variant: repetitions fan out across its pool as trace lanes
   (the same lane discipline the experiment harness uses), and the
   captured stream is the lane-merged JSONL export minus the manifest
   header (the manifest legitimately differs between variants — it
   records the pool size). *)
let capture ~cca ~trace_spec ~rtt_ms ~buffer_kb ~loss ~duration ~flows ~runs
    ~impair v =
  let factory = Harness.Ccas.find cca in
  let pool = Exec.Pool.create ~size:v.domains () in
  let tracer = Obs.Trace.create () in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown pool)
    (fun () ->
      ignore
        (Exec.Pool.map pool
           (fun i ->
             let seed =
               v.seed + (7919 * i) + (if v.bump_seed = Some i then 1 else 0)
             in
             let spec =
               Harness.Scenario.spec_of_cli ~rtt:(rtt_ms /. 1000.0) ~buffer_kb
                 ~loss_p:loss ~impair ~duration ~seed trace_spec
             in
             Obs.Trace.run tracer ~lane:i (fun () ->
                 Harness.Scenario.run_uniform ~seed ~n_flows:flows ~factory
                   ~duration spec))
           (Array.init runs Fun.id)));
  let lines =
    match String.split_on_char '\n' (Obs.Trace.to_jsonl tracer) with
    | _manifest :: rest -> Array.of_list (List.filter (fun l -> l <> "") rest)
    | [] -> [||]
  in
  (match v.perturb with
  | Some n when n >= 0 && n < Array.length lines ->
    lines.(n) <- lines.(n) ^ " #diverged"
  | Some n ->
    Printf.eprintf "perturb=%d out of range (stream has %d events)\n" n
      (Array.length lines);
    exit 2
  | None -> ());
  lines

let run_cmd cca trace_spec rtt_ms buffer_kb loss duration flows seed impair runs
    window a_spec b_spec =
  let impair = Cli.impair_spec impair in
  if runs < 1 then begin
    Printf.eprintf "bad --runs %d (want >= 1)\n" runs;
    exit 2
  end;
  let base tag domains =
    { tag; seed; domains; bump_seed = None; perturb = None }
  in
  let a = parse_variant ~defaults:(base "A" 1) a_spec in
  let b = parse_variant ~defaults:(base "B" 4) b_spec in
  let cap v =
    capture ~cca ~trace_spec ~rtt_ms ~buffer_kb ~loss ~duration ~flows ~runs
      ~impair v
  in
  let ea = cap a in
  let eb = cap b in
  Printf.printf "scenario: cca=%s trace=%s duration=%gs runs=%d flows=%d\n" cca
    trace_spec duration runs flows;
  let result = Check.Bisect.first_divergence ea eb in
  print_string
    (Check.Bisect.report ~radius:window ~label_a:(variant_label a)
       ~label_b:(variant_label b) ea eb result);
  match result with Check.Bisect.Identical _ -> 0 | Check.Bisect.Diverged _ -> 1

let cca = Arg.(value & opt string "c-libra" & info [ "cca" ] ~doc:"CCA to run")
let trace = Arg.(value & opt string "wired:24" & info [ "trace" ] ~doc:"trace spec")
let rtt = Arg.(value & opt float 30.0 & info [ "rtt" ] ~doc:"min RTT in ms")
let buffer = Arg.(value & opt int 150 & info [ "buffer" ] ~doc:"buffer in KB")
let loss = Arg.(value & opt float 0.0 & info [ "loss" ] ~doc:"stochastic loss prob")
let duration = Arg.(value & opt float 5.0 & info [ "duration" ] ~doc:"seconds")
let flows = Arg.(value & opt int 1 & info [ "flows" ] ~doc:"number of flows")
let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"base random seed")

let runs =
  Arg.(
    value & opt int 2
    & info [ "runs" ] ~docv:"N"
        ~doc:"seed repetitions per variant, captured as trace lanes")

let window =
  Arg.(
    value & opt int 3
    & info [ "window" ] ~docv:"N"
        ~doc:"events of context to print around a divergence")

let a_spec =
  Arg.(
    value & opt string ""
    & info [ "a" ] ~docv:"K=V,.."
        ~doc:
          "variant A overrides (seed=, domains=, bump-seed=, perturb=); \
           default domains=1")

let b_spec =
  Arg.(
    value & opt string ""
    & info [ "b" ] ~docv:"K=V,.."
        ~doc:"variant B overrides; default domains=4")

let cmd =
  Cmd.v
    (Cmd.info "diverge"
       ~doc:
         "re-run two supposedly identical simulations and binary-search to \
          the first diverging event")
    Term.(
      const run_cmd $ cca $ trace $ rtt $ buffer $ loss $ duration $ flows $ seed
      $ Cli.impair $ runs $ window $ a_spec $ b_spec)

let () = exit (Cmd.eval' cmd)
