(* libra_search: adversarial scenario search (lib/search) from the CLI.

     libra_search --seed 7                      # leaderboard over the default CCAs
     libra_search --cca cubic --generations 8
     libra_search --mini                        # tier-1 smoke shape (searchcheck)
     libra_search --out scenarios               # commit shrunk counterexamples

   Output is byte-identical at any --domains value: the engine fans
   candidates out through the order-preserving pool and every stream is
   derived from the seed alone. *)

open Cmdliner

let default_ccas = [ "cubic"; "bbr"; "c-libra" ]

type cca_result = {
  cca : string;
  search : Search.Engine.result;
  final : Search.Eval.result;  (* shrunk when above threshold *)
  shrink_steps : int;
}

let run_cmd seed domains ccas generations population elites threshold duration
    plants out mini =
  Cli.set_domains domains;
  let plants =
    List.map
      (fun s ->
        match Faults.Spec.of_string s with
        | Ok spec -> { Search.Space.impair = spec; knobs = Search.Space.base_knobs }
        | Error m ->
          Printf.eprintf "--plant: %s\n" m;
          exit 2)
      plants
  in
  (* --mini: the searchcheck shape — CUBIC only, 2 cheap generations,
     with a trivial counterexample planted into generation 0 that the
     search must rediscover (and shrinking usually simplifies). *)
  let ccas, config, plants =
    if mini then
      ( [ "cubic" ],
        {
          Search.Engine.seed;
          generations = 2;
          population = 4;
          elites = 2;
          threshold = 0.25;
          duration = 2.0;
        },
        plants
        @ [
            {
              Search.Space.impair = Faults.Spec.of_string_exn "bernoulli:p=0.3";
              knobs = Search.Space.base_knobs;
            };
          ] )
    else
      ( (if ccas = [] then default_ccas else ccas),
        { Search.Engine.seed; generations; population; elites; threshold; duration },
        plants )
  in
  List.iter
    (fun cca ->
      try
        let (_ : Harness.Ccas.factory) = Harness.Ccas.find cca in
        ()
      with Invalid_argument m ->
        Printf.eprintf "--cca: %s\n" m;
        exit 2)
    ccas;
  let results =
    List.mapi
      (fun index cca ->
        let config =
          { config with Search.Engine.seed = config.Search.Engine.seed + (13 * index) }
        in
        let factory = Harness.Ccas.find cca in
        let runner =
          Harness.Scenario.adversarial_runner ~factory
            ~duration:config.Search.Engine.duration ()
        in
        let r = Search.Engine.search ~plants ~config ~runner () in
        let final, shrink_steps =
          if
            r.Search.Engine.best.Search.Eval.degradation
            >= config.Search.Engine.threshold
          then
            Search.Shrink.shrink ~runner ~duration:config.Search.Engine.duration
              ~threshold:config.Search.Engine.threshold r.Search.Engine.best
          else (r.Search.Engine.best, 0)
        in
        { cca; search = r; final; shrink_steps })
      ccas
  in
  let ranked =
    List.stable_sort
      (fun a b -> compare b.final.Search.Eval.degradation a.final.Search.Eval.degradation)
      results
  in
  Printf.printf "Adversarial search leaderboard (seed %d, threshold %g%%)\n" seed
    (100.0 *. config.Search.Engine.threshold);
  List.iter
    (fun r ->
      let deg = r.final.Search.Eval.degradation in
      Printf.printf "counterexample %s: %s deg=%.1f%% found=%s evals=%d shrink_steps=%d\n"
        r.cca
        (Search.Space.to_string r.final.Search.Eval.cand)
        (100.0 *. deg)
        (match r.search.Search.Engine.found_gen with
        | Some g -> Printf.sprintf "gen%d" g
        | None -> "no")
        r.search.Search.Engine.evals r.shrink_steps;
      List.iter
        (fun (s : Search.Engine.gen_stat) ->
          Printf.printf "  gen %d: best deg=%.1f%%  %s\n" s.Search.Engine.gen
            (100.0 *. s.Search.Engine.best_degradation)
            s.Search.Engine.best_spec)
        r.search.Search.Engine.stats;
      if r.search.Search.Engine.found_gen <> None then
        Printf.printf "FOUND %s deg=%.1f%%\n" r.cca (100.0 *. deg))
    ranked;
  (* --out: write each above-threshold shrunk counterexample as a
     corpus file the robustness matrix replays as a regression. *)
  (match out with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iter
      (fun r ->
        if r.final.Search.Eval.degradation >= config.Search.Engine.threshold then begin
          let name = Printf.sprintf "%s-worst" r.cca in
          let path = Filename.concat dir (name ^ ".scn") in
          Harness.Scenario.to_file path
            {
              Harness.Scenario.name;
              cca = r.cca;
              impair = r.final.Search.Eval.cand.Search.Space.impair;
              knobs = r.final.Search.Eval.cand.Search.Space.knobs;
              threshold = config.Search.Engine.threshold;
              degradation = r.final.Search.Eval.degradation;
              seed = 11;
              duration = config.Search.Engine.duration;
            };
          Printf.printf "wrote %s\n" path
        end)
      ranked);
  if List.exists (fun r -> r.search.Search.Engine.found_gen <> None) results then 0
  else 4

let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"search root seed")

let ccas =
  Arg.(
    value
    & opt_all string []
    & info [ "cca" ] ~docv:"NAME"
        ~doc:"CCA to attack (repeatable; default cubic, bbr, c-libra)")

let generations =
  Arg.(value & opt int 6 & info [ "generations" ] ~docv:"N" ~doc:"search generations")

let population =
  Arg.(value & opt int 12 & info [ "population" ] ~docv:"N" ~doc:"candidates per generation")

let elites =
  Arg.(
    value & opt int 3
    & info [ "elites" ] ~docv:"N" ~doc:"survivors copied into the next generation")

let threshold =
  Arg.(
    value & opt float 0.25
    & info [ "threshold" ] ~docv:"FRAC"
        ~doc:"counterexample threshold: relative utility degradation vs clean")

let duration =
  Arg.(
    value & opt float 6.0
    & info [ "duration" ] ~docv:"SECONDS" ~doc:"scenario duration per evaluation leg")

let plants =
  Arg.(
    value
    & opt_all string []
    & info [ "plant" ] ~docv:"SPEC"
        ~doc:
          "seed generation 0 with this --impair spec (repeatable); the \
           search must beat or rediscover it")

let out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR"
        ~doc:
          "write shrunk above-threshold counterexamples as $(docv)/<cca>-worst.scn \
           corpus files (replayed by the robustness matrix)")

let mini =
  Arg.(
    value & flag
    & info [ "mini" ]
        ~doc:
          "tier-1 smoke shape: CUBIC only, 2 generations of 4 at 2 s legs, \
           with a planted trivial counterexample to rediscover")

let cmd =
  Cmd.v
    (Cmd.info "libra_search"
       ~doc:
         "adversarial scenario search: find and shrink impairment specs that \
          degrade a CCA's utility vs a clean baseline")
    Term.(
      const run_cmd $ seed $ Cli.domains $ ccas $ generations $ population $ elites
      $ threshold $ duration $ plants $ out $ mini)

let () = exit (Cmd.eval' cmd)
