(* Integration tests: the paper's experiments at reduced scale. *)

open Cgc_vm
module W_platform = Cgc_workloads.Platform
module W_program_t = Cgc_workloads.Program_t
module W_grid = Cgc_workloads.Grid
module W_tree = Cgc_workloads.Tree
module W_queue = Cgc_workloads.Queue_lazy
module W_reverse = Cgc_workloads.List_reverse
module W_false_ref = Cgc_workloads.False_ref
module W_large = Cgc_workloads.Large_object
module W_dual = Cgc_workloads.Dual_run
module W_frag = Cgc_workloads.Fragmentation
module Harness = Cgc_workloads.Harness

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* --- platform presets --- *)

let test_platform_presets_build () =
  List.iter
    (fun p ->
      let env = W_platform.build_env ~heap_max:(2 * 1024 * 1024) p in
      (* globals area reserved and clean *)
      let dirty = ref 0 in
      for i = 0 to env.W_platform.globals_words - 1 do
        if Segment.read_word env.W_platform.data (Addr.add env.W_platform.globals_base (4 * i)) <> 0
        then incr dirty
      done;
      check int (p.W_platform.name ^ ": globals clean") 0 !dirty;
      (* pollution present for polluted presets *)
      if p.W_platform.pollution.W_platform.conversion_table_words > 0 then begin
        let first = Segment.read_word env.W_platform.data (Segment.base env.W_platform.data) in
        check bool (p.W_platform.name ^ ": pollution written") true (first <> 0)
      end)
    W_platform.all

let test_platform_lookup () =
  check bool "by_name finds" true (W_platform.by_name "pcr" <> None);
  check bool "by_name misses" true (W_platform.by_name "vax" = None);
  check int "nine rows" 9 (List.length W_platform.all)

let test_platform_scale () =
  let p = W_platform.scale ~lists:7 ~nodes_per_list:11 W_platform.pcr in
  check int "lists" 7 p.W_platform.lists;
  check int "nodes" 11 p.W_platform.nodes_per_list;
  check Alcotest.string "name kept" "pcr" p.W_platform.name

let test_conversion_value_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = W_platform.conversion_value rng in
    check bool "positive 32-bit" true (v > 0 && v < 0x100000000)
  done

(* --- program T --- *)

let test_program_t_small () =
  let p = W_platform.sparc_static ~optimized:false in
  let r = W_program_t.run ~lists:20 ~nodes:500 ~blacklisting:true p in
  check int "lists" 20 r.W_program_t.lists;
  check bool "retained within range" true (r.W_program_t.retained >= 0 && r.W_program_t.retained <= 20);
  check bool "collections happened" true (r.W_program_t.collections > 0);
  check bool "blacklist populated" true (r.W_program_t.blacklisted_pages > 0)

let test_program_t_blacklisting_helps () =
  let p = W_platform.sparc_static ~optimized:false in
  let row = W_program_t.run_row ~lists:40 ~nodes:1500 p in
  let without = row.W_program_t.without_blacklisting.W_program_t.retained in
  let with_bl = row.W_program_t.with_blacklisting.W_program_t.retained in
  check bool "blacklisting strictly reduces retention" true (with_bl < without);
  check bool "most lists leak without it" true (without > 10);
  check bool "few lists leak with it" true (with_bl <= 4)

(* Table 1 at the bench's default scale (seed 1993, a quarter of each
   platform's list length), pinned exactly as retained-list counts
   without and with blacklisting.  As percentages these are the 18
   [table1_*] figures of the committed bench summaries. *)
let table1_retained =
  [
    ("sparc-static", (159, 0));
    ("sparc-static-opt", (159, 0));
    ("sparc-dynamic", (23, 1));
    ("sparc-dynamic-opt", (23, 1));
    ("sgi-static", (6, 0));
    ("sgi-static-opt", (6, 0));
    ("os2-static", (28, 1));
    ("os2-static-opt", (28, 1));
    ("pcr", (94, 5));
  ]

let test_program_t_table1_pinned () =
  Alcotest.(check (list string))
    "the nine presets" (List.map fst table1_retained)
    (List.map (fun p -> p.W_platform.name) W_platform.all);
  List.iter
    (fun p ->
      let name = p.W_platform.name in
      let off, on = List.assoc name table1_retained in
      let row = W_program_t.run_row ~seed:1993 ~nodes:(p.W_platform.nodes_per_list / 4) p in
      check int (name ^ " retained, blacklisting off") off
        row.W_program_t.without_blacklisting.W_program_t.retained;
      check int (name ^ " retained, blacklisting on") on
        row.W_program_t.with_blacklisting.W_program_t.retained)
    W_platform.all

let test_program_t_deterministic () =
  let p = W_platform.os2_static ~optimized:false in
  let a = W_program_t.run ~seed:5 ~lists:15 ~nodes:300 p in
  let b = W_program_t.run ~seed:5 ~lists:15 ~nodes:300 p in
  check int "same seed same retention" a.W_program_t.retained b.W_program_t.retained;
  check int "same false refs" a.W_program_t.false_refs b.W_program_t.false_refs

let test_program_t_clean_platform_retains_nothing () =
  (* no pollution, no noise: the collector must reclaim everything *)
  let p =
    {
      (W_platform.sgi_static ~optimized:true) with
      W_platform.pollution = W_platform.no_pollution;
      machine_config =
        {
          (W_platform.sgi_static ~optimized:true).W_platform.machine_config with
          Cgc_mutator.Machine.register_residue = 0.;
          syscall_noise = 0.;
        };
    }
  in
  let r = W_program_t.run ~lists:20 ~nodes:500 ~blacklisting:true p in
  check int "zero retention on a clean platform" 0 r.W_program_t.retained

(* --- grid --- *)

let test_grid_embedded_corner_cases () =
  (* a false ref to vertex (0,0) reaches the whole grid *)
  let r = W_grid.run_one W_grid.Embedded ~rows:5 ~cols:5 ~target:0 in
  check int "(0,0) retains all vertices" 25 r.W_grid.retained_cells;
  (* the last vertex reaches only itself *)
  let r = W_grid.run_one W_grid.Embedded ~rows:5 ~cols:5 ~target:24 in
  check int "last vertex retains itself" 1 r.W_grid.retained_cells

let test_grid_separate_vertex_is_isolated () =
  let r = W_grid.run_one W_grid.Separate ~rows:5 ~cols:5 ~target:0 in
  check int "a vertex retains only itself" 1 r.W_grid.retained_cells

let test_grid_separate_bounded_by_row () =
  (* any injection retains at most one full row/column of spine plus its
     vertices: 2 * max(rows, cols) cells is a safe bound *)
  let s = W_grid.run_trials W_grid.Separate ~rows:6 ~cols:6 ~trials:25 in
  let bound = float_of_int (2 * 6 + 6) /. float_of_int (36 * 3) in
  check bool "bounded by one row" true (s.W_grid.max_fraction <= bound +. 0.01)

let test_grid_embedded_mean_quarter () =
  let s = W_grid.run_trials W_grid.Embedded ~rows:10 ~cols:10 ~trials:40 in
  check bool "mean near a quarter" true
    (s.W_grid.mean_fraction > 0.15 && s.W_grid.mean_fraction < 0.45)

(* --- tree --- *)

let test_tree_mean_near_height () =
  let r = W_tree.run ~depth:8 ~trials:60 () in
  let expected = float_of_int (r.W_tree.depth + 1) in
  check bool "mean retained close to height+1" true
    (r.W_tree.mean_retained > expected /. 2. && r.W_tree.mean_retained < expected *. 2.5)

let test_tree_total_nodes () =
  let r = W_tree.run ~depth:5 ~trials:3 () in
  check int "perfect tree population" 63 r.W_tree.total_nodes

(* --- queue --- *)

let test_queue_unbounded_growth () =
  let short = W_queue.run ~clear_links:false 500 in
  let long = W_queue.run ~clear_links:false 1500 in
  check bool "retention grows with ops" true
    (long.W_queue.dead_nodes_retained > short.W_queue.dead_nodes_retained + 500);
  check bool "most dead nodes retained" true
    (long.W_queue.dead_nodes_retained > long.W_queue.ops / 2)

let test_queue_clearing_bounds_growth () =
  let short = W_queue.run ~clear_links:true 500 in
  let long = W_queue.run ~clear_links:true 1500 in
  check bool "retention does not grow" true
    (long.W_queue.dead_nodes_retained <= short.W_queue.dead_nodes_retained + 1);
  check bool "at most the named node sticks" true (long.W_queue.dead_nodes_retained <= 1)

let test_lazy_stream_suffix_retention () =
  let kept = W_queue.run_stream ~clear_links:false 1200 in
  let cleared = W_queue.run_stream ~clear_links:true 1200 in
  check bool "forced suffix retained" true (kept.W_queue.dead_nodes_retained > 1000);
  check bool "clearing consumed links fixes it" true (cleared.W_queue.dead_nodes_retained <= 1)

let test_queue_window_stays_live () =
  let r = W_queue.run ~clear_links:true ~window:6 2000 in
  check int "window intact" 6 r.W_queue.live_window_nodes

(* --- list reversal --- *)

let test_reverse_ordering () =
  let run m = (W_reverse.run m ~elements:120 ~iterations:12).W_reverse.max_live_cells in
  let careless = run W_reverse.Careless in
  let cleared = run W_reverse.Cleared in
  let optimized = run W_reverse.Optimized in
  check bool "careless worst" true (careless > cleared);
  check bool "cleared better" true (cleared > optimized);
  check bool "careless much worse than optimized" true (careless > 2 * optimized)

let test_reverse_preserves_program_semantics () =
  (* whatever the mode, the final list must be the reversal *)
  let r = W_reverse.run W_reverse.Optimized ~elements:50 ~iterations:3 in
  check int "final live = original + last result" 100 r.W_reverse.final_live_cells

(* --- misidentification (section 2) --- *)

let test_sweep_monotone_in_occupancy () =
  let points =
    W_false_ref.misidentification_sweep ~samples:40_000 ~kind:W_false_ref.Uniform_words
      [ 64; 512 ]
  in
  match points with
  | [ small; large ] ->
      check bool "more heap, more misidentification" true
        (large.W_false_ref.p_valid_interior >= small.W_false_ref.p_valid_interior)
  | _ -> Alcotest.fail "expected two points"

let test_sweep_interior_increases_risk () =
  let points =
    W_false_ref.misidentification_sweep ~samples:40_000 ~kind:W_false_ref.Integer_like [ 512 ]
  in
  List.iter
    (fun p ->
      check bool "interior >= base-only" true
        (p.W_false_ref.p_valid_interior >= p.W_false_ref.p_valid_base_only);
      check bool "region >= interior" true
        (p.W_false_ref.p_in_heap_region >= p.W_false_ref.p_valid_interior))
    points

let test_halfword_concatenation () =
  let r = W_false_ref.halfword_study 8 in
  check int "aligned scan sees nothing" 0 r.W_false_ref.false_refs_aligned;
  check int "example is the documented address" 0x00100000 r.W_false_ref.example_value;
  check bool "unaligned scan retains boundary objects" true
    (r.W_false_ref.retained_avoidance_off >= 6);
  check int "trailing-zero avoidance defuses them" 0 r.W_false_ref.retained_avoidance_on

let test_placement () =
  match W_false_ref.placement_study ~samples:40_000 256 with
  | [ low; high ] ->
      check bool "low heap is hit" true (low.W_false_ref.p_false > 0.001);
      check bool "high heap is safe" true (high.W_false_ref.p_false < low.W_false_ref.p_false /. 10.)
  | _ -> Alcotest.fail "expected two placements"

(* --- large objects (observation 7) --- *)

let test_large_object_regimes () =
  let r = W_large.run ~sizes_kb:[ 16; 64; 256; 1024 ] () in
  check bool "blacklist non-empty" true (r.W_large.black_pages > 0);
  List.iter
    (fun p ->
      if p.W_large.anywhere_ok then
        check bool "anywhere ok implies first-page ok" true p.W_large.first_page_ok)
    r.W_large.probes;
  check bool "first-page regime places larger objects" true
    (r.W_large.largest_first_page_kb >= r.W_large.largest_anywhere_kb);
  check bool "strict regime hits a ceiling" true (r.W_large.largest_anywhere_kb < 1024)

(* --- dual run (footnote 4) --- *)

let test_dual_run () =
  let r = W_dual.run () in
  check int "no genuine pointer lost" 0 r.W_dual.genuine_lost;
  check bool "kept at most the conservative set" true
    (r.W_dual.dual_run_candidates <= r.W_dual.single_run_candidates);
  check bool "eliminates false references" true (r.W_dual.false_refs_eliminated > 0)

(* --- fragmentation (section 5) --- *)

let test_fragmentation_sane () =
  List.iter
    (fun a ->
      let r = W_frag.run a ~population:2000 ~iterations:6 in
      check bool "fragmentation >= 1" true (r.W_frag.fragmentation >= 1.);
      check bool "live positive" true (r.W_frag.live_bytes > 0))
    [ W_frag.Malloc_lifo; W_frag.Malloc_address_ordered; W_frag.Collector ]

(* --- pcr threads (appendix B) --- *)

module W_threads = Cgc_workloads.Pcr_threads

let test_threads_idle_pin_lists () =
  let none = W_threads.run ~threads:0 ~awake:false () in
  let idle = W_threads.run ~threads:6 ~awake:false () in
  check int "no threads, no retention" 0 none.W_threads.retained;
  check bool "idle threads pin lists" true (idle.W_threads.retained >= 3)

let test_threads_waking_releases () =
  let idle = W_threads.run ~threads:6 ~awake:false () in
  let awake = W_threads.run ~threads:6 ~awake:true () in
  check bool "waking up reduces apparent leakage" true
    (awake.W_threads.retained < idle.W_threads.retained)

(* --- analytic model --- *)

module W_model = Cgc_workloads.Model

let test_model_matches_measurement () =
  (* the static prediction must land near the measured no-blacklist
     retention; platforms span two orders of magnitude of pollution *)
  List.iter
    (fun p ->
      let nodes = p.W_platform.nodes_per_list / 8 in
      let predicted = (W_model.predict ~nodes p).W_model.predicted_retention_percent in
      let measured =
        (W_program_t.run ~blacklisting:false ~nodes p).W_program_t.retention_percent
      in
      check bool
        (Printf.sprintf "%s: predicted %.1f within 20 points of measured %.1f"
           p.W_platform.name predicted measured)
        true
        (Float.abs (predicted -. measured) <= 20.))
    [ W_platform.sparc_static ~optimized:false; W_platform.sgi_static ~optimized:false ]

let test_model_monotone_in_pollution () =
  let p = W_platform.sparc_static ~optimized:false in
  let lighter =
    { p with W_platform.pollution = { p.W_platform.pollution with W_platform.conversion_table_words = 100 } }
  in
  let heavy = (W_model.predict ~nodes:2000 p).W_model.predicted_retention_percent in
  let light = (W_model.predict ~nodes:2000 lighter).W_model.predicted_retention_percent in
  check bool "more pollution, more predicted retention" true (heavy > light)

(* --- harness --- *)

let test_harness_roots () =
  let h = Harness.create () in
  let a = Cgc.Gc.allocate h.Harness.gc 8 in
  Harness.set_root h 3 (Addr.to_int a);
  check int "root round trip" (Addr.to_int a) (Harness.get_root h 3);
  Cgc_mutator.Machine.clear_registers h.Harness.machine;
  Cgc.Gc.collect h.Harness.gc;
  check int "rooted object counted" 1 (Harness.count_allocated h [ a ]);
  Harness.clear_roots_area h;
  Cgc.Gc.collect h.Harness.gc;
  check int "dropped object gone" 0 (Harness.count_allocated h [ a ])

let () =
  Alcotest.run "workloads"
    [
      ( "platform",
        [
          Alcotest.test_case "presets build" `Quick test_platform_presets_build;
          Alcotest.test_case "lookup" `Quick test_platform_lookup;
          Alcotest.test_case "scale" `Quick test_platform_scale;
          Alcotest.test_case "conversion values" `Quick test_conversion_value_range;
        ] );
      ( "program-t",
        [
          Alcotest.test_case "small run" `Quick test_program_t_small;
          Alcotest.test_case "blacklisting helps" `Slow test_program_t_blacklisting_helps;
          Alcotest.test_case "deterministic" `Quick test_program_t_deterministic;
          Alcotest.test_case "table 1 pinned" `Slow test_program_t_table1_pinned;
          Alcotest.test_case "clean platform" `Quick test_program_t_clean_platform_retains_nothing;
        ] );
      ( "grid",
        [
          Alcotest.test_case "embedded corners" `Quick test_grid_embedded_corner_cases;
          Alcotest.test_case "separate vertex isolated" `Quick test_grid_separate_vertex_is_isolated;
          Alcotest.test_case "separate bounded" `Quick test_grid_separate_bounded_by_row;
          Alcotest.test_case "embedded quarter" `Slow test_grid_embedded_mean_quarter;
        ] );
      ( "tree",
        [
          Alcotest.test_case "mean near height" `Quick test_tree_mean_near_height;
          Alcotest.test_case "population" `Quick test_tree_total_nodes;
        ] );
      ( "queue",
        [
          Alcotest.test_case "unbounded growth" `Quick test_queue_unbounded_growth;
          Alcotest.test_case "clearing bounds growth" `Quick test_queue_clearing_bounds_growth;
          Alcotest.test_case "window live" `Quick test_queue_window_stays_live;
          Alcotest.test_case "lazy stream" `Quick test_lazy_stream_suffix_retention;
        ] );
      ( "list-reverse",
        [
          Alcotest.test_case "mode ordering" `Quick test_reverse_ordering;
          Alcotest.test_case "semantics" `Quick test_reverse_preserves_program_semantics;
        ] );
      ( "misidentification",
        [
          Alcotest.test_case "monotone" `Quick test_sweep_monotone_in_occupancy;
          Alcotest.test_case "interior risk" `Quick test_sweep_interior_increases_risk;
          Alcotest.test_case "halfword (figure 1)" `Quick test_halfword_concatenation;
          Alcotest.test_case "placement" `Quick test_placement;
        ] );
      ( "large-object",
        [ Alcotest.test_case "regimes" `Quick test_large_object_regimes ] );
      ("dual-run", [ Alcotest.test_case "eliminates false refs" `Quick test_dual_run ]);
      ( "pcr-threads",
        [
          Alcotest.test_case "idle threads pin" `Quick test_threads_idle_pin_lists;
          Alcotest.test_case "waking releases" `Quick test_threads_waking_releases;
        ] );
      ("fragmentation", [ Alcotest.test_case "sane" `Quick test_fragmentation_sane ]);
      ( "model",
        [
          Alcotest.test_case "matches measurement" `Slow test_model_matches_measurement;
          Alcotest.test_case "monotone" `Quick test_model_monotone_in_pollution;
        ] );
      ("harness", [ Alcotest.test_case "roots" `Quick test_harness_roots ]);
    ]
