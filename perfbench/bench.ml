(* The benchmark executable.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   Runs whole passes of one workload.  A pass is a fixed unit of work
   whose inputs come from the seed and the pass number alone, so every
   count repeats exactly; the number of passes is [S] divided by the
   workload's nominal pass length, never a measured time.  With
   [--trace 0] it reports the end-to-end metrics of untraced passes;
   with [--trace 1] it runs the same passes untraced and then traced,
   checks that their counts agree, and reports the per-layer metrics.
   The last line of output is one JSON object; the exit code is nonzero
   when any correctness gate failed. *)

open Perfbench

type workload = {
  name : string;
  collected : bool;  (** [explicit_churn] runs no collector, so it has no pauses *)
  nominal_pass_s : float;
  run_pass : Meter.run -> seed:int -> unit;
}

let workloads =
  [
    {
      name = "program_t";
      collected = true;
      nominal_pass_s = 5.;
      run_pass = (fun r ~seed -> Prog_t.pass r ~seed Prog_t.standard);
    };
    {
      name = "churn";
      collected = true;
      nominal_pass_s = 1.25;
      run_pass = (fun r ~seed -> Churn.run_collected r (Churn.generate ~seed Churn.standard));
    };
    {
      name = "explicit_churn";
      collected = false;
      nominal_pass_s = 1.25;
      run_pass = (fun r ~seed -> Churn.run_explicit r (Churn.generate ~seed Churn.standard));
    };
  ]

(* Pass [p] of a run with seed [s] uses this input seed. *)
let pass_seed seed p = if p = 0 then seed else (seed * 1_000_003) + (p * 7919)

let run_passes w ~traced ~seed ~passes =
  let r = Meter.run ~traced in
  for p = 0 to passes - 1 do
    w.run_pass r ~seed:(pass_seed seed p);
    Stdlib.Gc.full_major ()
  done;
  r

let float_of_ns ns = float_of_int ns /. 1e9
let alloc_per_s (r : Meter.run) = float_of_int r.allocs /. float_of_ns r.timed_ns

let percentile_ms r p =
  match Meter.percentile (Meter.Samples.sorted r.Meter.col.pauses) p with
  | Ok ns -> float_of_int ns /. 1e6
  | Error msg ->
      Meter.fail r ("pause_" ^ msg);
      nan

(* Figures of the untraced passes that carry no bound: absolute timings,
   which move with host speed by up to a quarter between processes, and
   the false retention, which is 0 on the churn workloads.  Without a
   collector the pause figures are 0. *)
let unbounded w (r : Meter.run) ~passes =
  let pause p = if w.collected then percentile_ms r p else 0. in
  [
    ("alloc_per_s", alloc_per_s r, "1/s");
    ("pause_p50_ms", pause 50., "ms");
    ("pause_p90_ms", pause 90., "ms");
    ("pause_samples", float_of_int (Meter.Samples.length r.col.pauses), "count");
    ("retained_kb", float_of_int r.retained /. 1024. /. float_of_int passes, "KiB");
  ]

(* Host speed cancels out of these, or they are counts; [setup_s] is
   the exception the result format requires. *)
let end_to_end (r : Meter.run) ~passes =
  let pf = float_of_int passes in
  [
    ("setup_s", Meter.median_float r.setups, "s");
    ( "reclaim_share",
      float_of_int (Meter.Samples.sum r.col.pauses + r.free_ns) /. float_of_int r.timed_ns,
      "share" );
    ("peak_committed_kb", float_of_int r.peak_committed /. 1024. /. pf, "KiB");
    ("heap_overhead", float_of_int r.peak_committed /. float_of_int r.peak_reachable, "ratio");
  ]

let per_layer w ~(untraced : Meter.run) (r : Meter.run) ~passes ~probe =
  let pf = float_of_int passes in
  let l = r.col.layers and sp = r.spans in
  let cycles = float_of_int (max 1 r.col.collections) in
  let div a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let ms s = Meter.median_ns s /. 1e6 in
  unbounded w untraced ~passes
  @ [
    ("gc.alloc_small_ns", Meter.median_ns sp.alloc_small, "ns");
    ("gc.alloc_atomic_ns", Meter.median_ns sp.alloc_atomic, "ns");
    ("gc.alloc_large_ns", Meter.median_ns sp.alloc_large, "ns");
    ("gc.ladder_rungs", 1000. *. div r.ladder_steps r.allocs, "per_1k_alloc");
    ("gc.heap_expansions", float_of_int r.heap_expansions /. pf, "count");
    ("gc.alloc_vs_malloc_free", probe, "ratio");
    ("mark.ms_per_cycle", ms l.mark_ns, "ms");
    ("mark.ns_per_word", div (Meter.Samples.sum l.mark_ns) l.words, "ns");
    ("mark.words_per_cycle", float_of_int l.words /. cycles, "count");
    ("mark.root_word_share", div l.root_words l.words, "share");
    ("mark.objects_per_cycle", float_of_int l.objects_marked /. cycles, "count");
    ("mark.jobs2_speedup", r.jobs2_speedup, "ratio");
    ("blacklist.false_ref_share", div l.false_refs (l.false_refs + l.valid_refs), "share");
    ("blacklist.ops_per_kword", 1000. *. div l.blacklist_ops l.words, "per_1k_word");
    ("blacklist.pages", float_of_int r.blacklist_pages /. pf, "count");
    ("blacklist.rejected_pages", float_of_int r.rejected_pages /. pf, "count");
    ("sweep.ms_per_cycle", ms l.sweep_ns, "ms");
    ("sweep.ns_per_object", div (Meter.Samples.sum l.sweep_ns) l.visited_objects, "ns");
    ("sweep.freed_per_cycle", float_of_int l.swept_objects /. cycles, "count");
    ("sweep.pages_released", float_of_int l.pages_released /. pf, "count");
    ("explicit.malloc_ns", Meter.median_ns sp.malloc, "ns");
    ("explicit.free_ns", Meter.median_ns sp.free, "ns");
    ( "explicit.fragmentation",
      (if r.fragmentation = [] then 0. else Meter.median_float r.fragmentation),
      "ratio" );
    ("mem.get_field_ns", Meter.median_ns sp.get_field, "ns");
    ("mem.set_field_ns", Meter.median_ns sp.set_field, "ns");
    ("machine.alloc_ns", Meter.median_ns sp.machine_alloc, "ns");
    ("trace.overhead_share", 1. -. (alloc_per_s r /. alloc_per_s untraced), "share");
  ]

(* Traced and untraced passes must do the same work: every count of
   every pass agrees. *)
let differential ~(untraced : Meter.run) (traced : Meter.run) =
  List.iteri
    (fun p (u, t) ->
      List.iter2
        (fun (name, a) (_, b) ->
          if a <> b then
            Meter.fail traced (Printf.sprintf "pass %d: %s untraced %d, traced %d" p name a b))
        u t)
    (List.combine (List.rev untraced.counts) (List.rev traced.counts))

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (if Float.is_nan v then "null" else json_number v)
             unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed body

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME program_t | churn | explicit_churn");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S run length");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  let traced = !trace = 1 in
  let budget = if traced then !seconds /. 2. else !seconds in
  let passes = max 1 (Float.to_int (Float.round (budget /. w.nominal_pass_s))) in
  Printf.printf "host: nproc-domains %d, OCaml %s, hardware counters unused\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version;
  let untraced = run_passes w ~traced:false ~seed:!seed ~passes in
  (* [shown] is printed; [metrics] is the result line.  Untraced, the
     unbounded figures are shown but are not end-to-end metrics. *)
  let report, shown, metrics =
    if not traced then begin
      let e2e = end_to_end untraced ~passes in
      (untraced, e2e @ unbounded w untraced ~passes, e2e)
    end
    else begin
      let r = run_passes w ~traced:true ~seed:!seed ~passes in
      differential ~untraced r;
      let probe = Probe.alloc_vs_malloc_free () in
      let layers = per_layer w ~untraced r ~passes ~probe in
      r.failures <- r.failures @ untraced.failures;
      (r, layers, layers)
    end
  in
  Printf.printf "%s seed %d: %d passes, %d timed ops, %d allocations, %d collections, %d set-ups\n"
    w.name !seed passes untraced.attempted untraced.allocs
    (Meter.Samples.length untraced.col.pauses)
    (List.length untraced.setups);
  List.iter (fun (n, v, u) -> Printf.printf "  %-26s %14.6g %s\n" n v u) shown;
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) (List.rev report.failures);
  let failed = List.length report.failures in
  print_result ~correct:(failed = 0) ~attempted:report.attempted ~failed metrics;
  exit (if failed = 0 then 0 else 1)
