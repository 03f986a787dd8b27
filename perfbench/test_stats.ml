(* The benchmark's own arithmetic: the tail percentile a batch can
   support, self time under nested and sibling children, the
   failed_frac numerator and denominator, and the host-speed rescaling
   of a pass. *)

let close = Alcotest.float 1e-12

let test_median () =
  Alcotest.check close "odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.check close "even" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |])

let test_tail () =
  let xs n = Array.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check bool) "ten samples support no tail" true (Stats.tail (xs 10) = None);
  let check n ~p ~rank =
    match Stats.tail (xs n) with
    | None -> Alcotest.failf "n=%d: no tail" n
    | Some t ->
      Alcotest.(check int) (Printf.sprintf "n=%d percentile" n) p t.percentile;
      Alcotest.(check int) (Printf.sprintf "n=%d rank" n) rank t.rank;
      Alcotest.check close (Printf.sprintf "n=%d value" n) (float_of_int rank) t.value;
      Alcotest.(check bool)
        (Printf.sprintf "n=%d keeps ten beyond" n)
        true
        (n - t.rank >= 10)
  in
  check 11 ~p:9 ~rank:1;
  check 20 ~p:50 ~rank:10;
  check 40 ~p:75 ~rank:30;
  check 45 ~p:77 ~rank:35;
  check 1000 ~p:99 ~rank:990;
  (* unsorted input gives the same answer *)
  let shuffled = [| 5.0; 1.0; 4.0; 2.0; 3.0; 11.0; 9.0; 6.0; 8.0; 7.0; 10.0; 12.0 |] in
  match Stats.tail shuffled with
  | Some t -> Alcotest.check close "unsorted" 2.0 t.value
  | None -> Alcotest.fail "no tail for 12 samples"

let test_self_time () =
  Alcotest.check close "no children" 10.0 (Stats.self_time ~t0:0.0 ~t1:10.0 []);
  Alcotest.check close "disjoint siblings" 6.0
    (Stats.self_time ~t0:0.0 ~t1:10.0 [ (1.0, 3.0); (5.0, 7.0) ]);
  Alcotest.check close "overlapping siblings" 5.0
    (Stats.self_time ~t0:0.0 ~t1:10.0 [ (1.0, 4.0); (3.0, 6.0) ]);
  Alcotest.check close "nested child counted once" 7.0
    (Stats.self_time ~t0:0.0 ~t1:10.0 [ (2.0, 5.0); (3.0, 4.0) ]);
  Alcotest.check close "clipped to the parent" 7.0
    (Stats.self_time ~t0:0.0 ~t1:10.0 [ (-2.0, 1.0); (8.0, 12.0) ]);
  Alcotest.check close "child covering the parent" 0.0
    (Stats.self_time ~t0:0.0 ~t1:10.0 [ (4.0, 6.0); (-1.0, 11.0) ])

let test_failed_frac () =
  let open Stats in
  let f, a, frac = failed_frac [ Ok_run; Raised; Supervised_error; Check_failed; Ok_run ] in
  Alcotest.(check int) "failed counts every kind" 3 f;
  Alcotest.(check int) "attempted counts every run" 5 a;
  Alcotest.check close "frac" 0.6 frac;
  let f, a, frac = failed_frac [ Ok_run; Ok_run ] in
  Alcotest.(check (pair int int)) "none failed" (0, 2) (f, a);
  Alcotest.check close "zero" 0.0 frac;
  Alcotest.check_raises "nothing attempted"
    (Invalid_argument "Stats.failed_frac: nothing attempted") (fun () ->
      ignore (failed_frac []))

let test_normalised_pass () =
  (* the runs' speed factor (norm / wall = 12 / 8) applies to the pass *)
  Alcotest.check close "sequential" 15.0
    (Stats.normalised_pass ~wall:10.0 [ (4.0, 8.0); (4.0, 4.0) ]);
  (* the factor is time-weighted, so the long slow run counts for more
     than the short fast one *)
  Alcotest.check close "time-weighted" 7.0
    (Stats.normalised_pass ~wall:5.0 [ (9.0, 13.5); (1.0, 0.5) ]);
  Alcotest.check close "at reference speed" 7.5
    (Stats.normalised_pass ~wall:7.5 [ (3.0, 3.0); (4.0, 4.0) ]);
  Alcotest.check_raises "no runs" (Invalid_argument "Stats.normalised_pass") (fun () ->
      ignore (Stats.normalised_pass ~wall:1.0 []))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "tail percentile" `Quick test_tail;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "failed_frac" `Quick test_failed_frac;
          Alcotest.test_case "normalised pass" `Quick test_normalised_pass;
        ] );
    ]
