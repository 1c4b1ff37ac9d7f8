(* Tests of the benchmark's own helpers (pstats.ml). *)

open Perfbench

let sorted n = Array.init n (fun i -> float_of_int (i + 1))

(* the benchmark's percentiles are Bvf_util.Percentile's; the ten-beyond
   rule counts the samples above the element it picks *)
let test_percentile () =
  Alcotest.(check (float 0.)) "median of a list" 2. (Pstats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "median of an even list: lower middle" 2.
    (Pstats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (float 0.)) "empty median" 0. (Pstats.median []);
  List.iter
    (fun n ->
       List.iter
         (fun p ->
            let v = Bvf_util.Percentile.of_sorted (sorted n) p in
            Alcotest.(check int) (Printf.sprintf "beyond %d p%d" n p)
              (n - int_of_float v) (Pstats.beyond n p))
         (100 :: 0 :: Pstats.tail_ladder))
    [ 1; 2; 19; 20; 100; 901; 902; 1000 ];
  Alcotest.(check int) "no samples, none beyond" 0 (Pstats.beyond 0 99)

let opt_p = Alcotest.(option int)

let test_ten_beyond () =
  Alcotest.(check int) "p99 of 1000 has 10 beyond" 10 (Pstats.beyond 1000 99);
  Alcotest.(check int) "p99 of 901 has 9 beyond" 9 (Pstats.beyond 901 99);
  List.iter
    (fun (n, want) ->
       Alcotest.(check opt_p) (Printf.sprintf "%d samples" n) want
         (Pstats.tail_percentile n))
    [ (1000, Some 99); (902, Some 99); (901, Some 95); (182, Some 95);
      (181, Some 90); (92, Some 90); (91, Some 75); (38, Some 75);
      (37, Some 50); (20, Some 50); (19, None); (0, None) ]

let test_window_rates () =
  let rates = Alcotest.(list (float 1e-9)) in
  (* a start at 0, then completions; an incomplete last window is dropped *)
  let times = [| 0.; 0.5; 1.0; 1.5; 2.0; 4.0 |] in
  Alcotest.check rates "windows of 2" [ 2.; 2. ] (Pstats.window_rates ~w:2 times);
  Alcotest.check rates "one window of 5" [ 1.25 ] (Pstats.window_rates ~w:5 times);
  Alcotest.check rates "too few completions" [] (Pstats.window_rates ~w:6 times);
  Alcotest.check rates "no timestamps" [] (Pstats.window_rates ~w:1 [||]);
  Alcotest.check_raises "empty window" (Invalid_argument "Pstats.window_rates: w < 1")
    (fun () -> ignore (Pstats.window_rates ~w:0 times))

let test_spread_order () =
  Alcotest.(check (array int)) "n = 5" [| 0; 4; 2; 1; 3 |] (Pstats.spread_order 5);
  Alcotest.(check (array int)) "n = 0" [||] (Pstats.spread_order 0);
  List.iter
    (fun n ->
       let o = Pstats.spread_order n in
       let sorted = Array.copy o in
       Array.sort compare sorted;
       Alcotest.(check (array int)) "a permutation" (Array.init n Fun.id) sorted;
       (* every leading quarter reaches into each half of the range *)
       if n >= 8 then begin
         let q = Array.sub o 0 (n / 4) in
         Alcotest.(check bool) "low half" true (Array.exists (fun i -> i < n / 2) q);
         Alcotest.(check bool) "high half" true (Array.exists (fun i -> i >= n / 2) q)
       end)
    [ 1; 2; 7; 8; 100; 708 ]

let draws seed n =
  let z = Pstats.zipf ~n:50 ~s:1.0 in
  let rng = Bvf_core.Rng.create seed in
  List.init n (fun _ -> Pstats.zipf_draw z rng)

let test_zipf () =
  Alcotest.(check (list int)) "same seed, same sequence" (draws 7 500) (draws 7 500);
  Alcotest.(check bool) "another seed, another sequence" true
    (draws 7 500 <> draws 8 500);
  let d = draws 3 20000 in
  Alcotest.(check bool) "ranks in range" true
    (List.for_all (fun r -> r >= 0 && r < 50) d);
  let count r = List.length (List.filter (( = ) r) d) in
  (* weight 1/(r+1): rank 0 is drawn about twice as often as rank 1 *)
  Alcotest.(check bool) "rank 0 most frequent" true
    (count 0 > count 1 && count 1 > count 9);
  let share = float_of_int (count 0) /. 20000. in
  (* 1 / H(50) = 0.2222 *)
  Alcotest.(check bool) "rank 0 share near 1/H(50)" true
    (Float.abs (share -. 0.2222) < 0.02);
  Alcotest.check_raises "empty support" (Invalid_argument "Pstats.zipf: n < 1")
    (fun () -> ignore (Pstats.zipf ~n:0 ~s:1.0))

let body = "{\"id\":\"st-0001\",\"key\":\"ab\",\"verdict\":\"accepted\",\"insns\":3}"
let with_cache word = String.sub body 0 (String.length body - 1)
                      ^ ",\"cache\":\"" ^ word ^ "\"}"

let test_strip_cache () =
  Alcotest.(check (pair string (option string))) "hit stripped"
    (body, Some "hit") (Pstats.strip_cache (with_cache "hit"));
  Alcotest.(check (pair string (option string))) "miss stripped"
    (body, Some "miss") (Pstats.strip_cache (with_cache "miss"));
  Alcotest.(check (pair string (option string))) "no cache field: unchanged"
    (body, None) (Pstats.strip_cache body);
  (* a "cache" word inside a string value is not the trailing field *)
  let msg = "{\"id\":\"x\",\"msg\":\",\\\"cache\\\":\\\"hit\\\"\",\"pc\":1}" in
  Alcotest.(check (pair string (option string))) "quoted look-alike kept"
    (msg, None) (Pstats.strip_cache msg)

let check = Pstats.check_response ~expected:body
let result = Alcotest.(result string (of_pp (fun f k ->
    Format.pp_print_string f (Pstats.failure_name k))))

let test_check_response () =
  Alcotest.check result "matching hit" (Ok body)
    (check ~first:None ~accepted:true (Some (with_cache "hit")));
  Alcotest.check result "repeat equal to first" (Ok body)
    (check ~first:(Some body) ~accepted:true (Some (with_cache "miss")));
  Alcotest.check result "closed pipe" (Error Pstats.No_response)
    (check ~first:None ~accepted:false None);
  Alcotest.check result "garbage" (Error Pstats.Unparsable)
    (check ~first:None ~accepted:false (Some "not json"));
  Alcotest.check result "missing cache field" (Error Pstats.Unparsable)
    (check ~first:None ~accepted:false (Some body));
  Alcotest.check result "error verdict" (Error Pstats.Verdict_error)
    (check ~first:None ~accepted:false
       (Some "{\"id\":\"st-0001\",\"verdict\":\"error\",\"msg\":\"x\",\"cache\":\"miss\"}"));
  let other =
    "{\"id\":\"st-0001\",\"key\":\"ab\",\"verdict\":\"rejected\",\"pc\":1,\"cache\":\"hit\"}"
  in
  Alcotest.check result "wrong verdict" (Error Pstats.Wrong_verdict)
    (check ~first:None ~accepted:false (Some other));
  Alcotest.check result "repeat differs from first" (Error Pstats.Repeat_mismatch)
    (check ~first:(Some "{\"id\":\"st-0001\"}") ~accepted:true (Some (with_cache "hit")));
  let rejected = "{\"id\":\"g\",\"verdict\":\"rejected\"}" in
  Alcotest.check result "self-test must be accepted" (Error Pstats.Wrong_verdict)
    (Pstats.check_response ~expected:rejected ~first:None ~accepted:true
       (Some "{\"id\":\"g\",\"verdict\":\"rejected\",\"cache\":\"miss\"}"))

let test_error_rate () =
  let t = Pstats.tally () in
  Alcotest.(check (float 0.)) "no attempts" 0. (Pstats.error_rate t);
  Pstats.attempt t 100;
  List.iter (Pstats.fail t) Pstats.all_failures;
  Pstats.fail t ~count:2 Pstats.Env_error;
  let kinds = List.length Pstats.all_failures in
  Alcotest.(check int) "every kind counted" (kinds + 2) (Pstats.failed t);
  Alcotest.(check int) "per-kind count" 3 (Pstats.count t Pstats.Env_error);
  List.iter
    (fun k ->
       Alcotest.(check bool) (Pstats.failure_name k) true (Pstats.count t k >= 1))
    Pstats.all_failures;
  Alcotest.(check (float 1e-12)) "rate" (float_of_int (kinds + 2) /. 100.)
    (Pstats.error_rate t)

let () =
  Alcotest.run "perfbench"
    [ ("percentile",
       [ Alcotest.test_case "shared percentile" `Quick test_percentile;
         Alcotest.test_case "ten beyond" `Quick test_ten_beyond;
         Alcotest.test_case "window rates" `Quick test_window_rates ]);
      ("serve pool",
       [ Alcotest.test_case "zipf deterministic per seed" `Quick test_zipf;
         Alcotest.test_case "spread order" `Quick test_spread_order ]);
      ("serve",
       [ Alcotest.test_case "strip cache field" `Quick test_strip_cache;
         Alcotest.test_case "check response" `Quick test_check_response ]);
      ("tally", [ Alcotest.test_case "error rate" `Quick test_error_rate ]) ]
