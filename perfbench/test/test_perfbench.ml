(* The benchmark's own checks: its percentile rule, the determinism its
   exact counts rest on, and the startup-collection replay that keeps
   the hooked program T equal to the library's. *)

open Perfbench
module Platform = Cgc_workloads.Platform
module Program_t = Cgc_workloads.Program_t

let small = { Churn.slots = 64; ops = 20_000 }

let percentile_refuses_thin_tails () =
  let sorted n = Array.init n (fun i -> i + 1) in
  (match Meter.percentile (sorted 99) 90. with
  | Error _ -> ()
  | Ok v -> Alcotest.failf "p90 of 99 samples accepted (%d)" v);
  Alcotest.(check (result int string)) "p90 of 100" (Ok 90) (Meter.percentile (sorted 100) 90.);
  (match Meter.percentile (sorted 19) 50. with
  | Error _ -> ()
  | Ok v -> Alcotest.failf "p50 of 19 samples accepted (%d)" v);
  Alcotest.(check (result int string)) "p50 of 20" (Ok 10) (Meter.percentile (sorted 20) 50.)

let counts_of run_pass =
  let r = Meter.run ~traced:false in
  run_pass r;
  Alcotest.(check (list string)) "no gate failed" [] r.Meter.failures;
  r.Meter.counts

let same_seed_same_counts () =
  let go run () = counts_of (fun r -> run r (Churn.generate ~seed:5 small)) in
  let check name run =
    Alcotest.(check (list (list (pair string int)))) name (go run ()) (go run ())
  in
  check "churn" Churn.run_collected;
  check "explicit_churn" Churn.run_explicit

let other_seed_other_trace () =
  let a = Churn.generate ~seed:5 small and b = Churn.generate ~seed:6 small in
  Alcotest.(check bool) "timed ops differ" false (a.Churn.timed = b.Churn.timed);
  Alcotest.(check bool) "fill differs" false (a.Churn.fill = b.Churn.fill)

let traced_counts_equal_untraced () =
  let tr = Churn.generate ~seed:9 small in
  List.iter
    (fun run ->
      let u = Meter.run ~traced:false and t = Meter.run ~traced:true in
      run u tr;
      run t tr;
      Alcotest.(check (list (list (pair string int)))) "counts" u.Meter.counts t.Meter.counts)
    [ Churn.run_collected; Churn.run_explicit ]

(* One down-scaled row: the copy run with the collect hook installed
   (timed collect or split collect) retains exactly the lists that
   [Program_t.run], which never sets a hook, retains. *)
let hooked_program_t_retention () =
  let platform = Platform.sparc_static ~optimized:false in
  let scale = { Prog_t.rows = [ platform ]; lists = Some 40; nodes_divisor = 40 } in
  let nodes = platform.Platform.nodes_per_list / 40 in
  let expected = (Program_t.run ~seed:1993 ~lists:40 ~nodes platform).Program_t.retained in
  List.iter
    (fun traced ->
      let r = Meter.run ~traced in
      Prog_t.pass r ~seed:1993 scale;
      Alcotest.(check (list string)) "no gate failed" [] r.Meter.failures;
      match r.Meter.counts with
      | [ counts ] ->
          Alcotest.(check int) "retained lists" expected (List.assoc "retained_lists" counts)
      | _ -> Alcotest.fail "one row, one count list")
    [ false; true ]

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "percentile refuses thin tails" `Quick percentile_refuses_thin_tails;
          Alcotest.test_case "same seed, same counts" `Quick same_seed_same_counts;
          Alcotest.test_case "other seed, other trace" `Quick other_seed_other_trace;
          Alcotest.test_case "traced counts equal untraced" `Quick traced_counts_equal_untraced;
          Alcotest.test_case "hooked program T retention" `Quick hooked_program_t_retention;
        ] );
    ]
