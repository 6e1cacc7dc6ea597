(* Appendix A's program T over the Table-1 rows, blacklisting on.  This
   is [Cgc_workloads.Program_t.run]'s call sequence, copied so that the
   allocations and collections can be timed: [Machine] and the
   [Builder.alloc_cycle] loop for the lists, [Gc.collect] inside a
   machine frame, [Gc.drain_finalized] for the retention count.  Each
   row's retention is checked against [Program_t.run] itself. *)

open Cgc_vm
module Machine = Cgc_mutator.Machine
module Platform = Cgc_workloads.Platform
module Program_t = Cgc_workloads.Program_t

type scale = {
  rows : Platform.t list;
  lists : int option;
  nodes_divisor : int;  (** each row's list length is divided by this *)
}

(* The repository's standard Table-1 scale: quarter-length lists. *)
let standard = { rows = Platform.all; lists = None; nodes_divisor = 4 }

(* set-ups per row; the pass reports their median *)
let setups = 5

type row = {
  env : Platform.env;
  rng : Rng.t;
  ballast_records : int;
}

let a_slot env i = Addr.add env.Platform.globals_base (4 * i)
let ballast_root env = Addr.add env.Platform.globals_base (4 * (env.Platform.globals_words - 1))

(* Environment, the startup collection, and PCR's ballast.  [Gc.create]
   does not collect; [Program_t.run] gets its startup collection from
   the first [allocate], which skips it once a collect hook is set, so
   it is run here explicitly before the first allocation. *)
let setup ~seed ~heap_max (platform : Platform.t) =
  let env = Platform.build_env ~seed ~blacklisting:true ~heap_max platform in
  Cgc.Gc.collect env.Platform.gc;
  let rng = Rng.create (seed lxor 0x5EED) in
  let m = env.Platform.machine in
  let record_bytes = 256 in
  let n = platform.Platform.other_live_bytes / record_bytes in
  let root = ballast_root env in
  for _ = 1 to n do
    let r = Machine.allocate m record_bytes in
    Machine.write_field m r 0 (Machine.read_root_word m env.Platform.data root);
    for w = 1 to (record_bytes / 4) - 1 do
      if Rng.chance rng 0.05 then Machine.write_field m r w (Rng.int rng (1024 * 1024))
    done;
    Machine.write_root_word m env.Platform.data root (Addr.to_int r)
  done;
  { env; rng; ballast_records = n }

(* The lists are the only allocations of the timed phase. *)
let allocate (r : Meter.run) m ~peak ?finalizer bytes =
  let gc = Machine.gc m in
  let a =
    if Meter.traced r then begin
      let c0 = r.col.collections in
      let t0 = Meter.now () in
      let a = Machine.allocate ?finalizer m bytes in
      let dt = Meter.now () - t0 in
      if r.col.collections = c0 then Meter.Samples.add r.spans.machine_alloc dt;
      a
    end
    else Machine.allocate ?finalizer m bytes
  in
  let c = Cgc.Heap.committed_bytes (Cgc.Gc.heap gc) in
  if c > !peak then peak := c;
  a

let alloc_cycle r m ~peak ~finalizer ~cell_bytes ~n =
  let saved1 = Machine.get_register m 1 and saved2 = Machine.get_register m 2 in
  let head = allocate r m ~peak ?finalizer cell_bytes in
  Machine.set_register m 1 (Addr.to_int head);
  Machine.set_register m 2 (Addr.to_int head);
  let magic = 0xCAFE0000 in
  if cell_bytes >= 8 then Machine.write_field m head 1 magic;
  for _ = 2 to n do
    let cell = allocate r m ~peak cell_bytes in
    if cell_bytes >= 8 then Machine.write_field m cell 1 magic;
    Machine.write_field m (Addr.of_int (Machine.get_register m 2)) 0 (Addr.to_int cell);
    Machine.set_register m 2 (Addr.to_int cell)
  done;
  Machine.write_field m (Addr.of_int (Machine.get_register m 2)) 0 (Addr.to_int head);
  Machine.set_register m 1 saved1;
  Machine.set_register m 2 saved2;
  head

let test r env ~peak ~register_finalizers ~lists ~cell_bytes ~nodes =
  let m = env.Platform.machine in
  Machine.call m ~slots:2 (fun frame ->
      for i = 0 to lists - 1 do
        Machine.set_local frame 0 i;
        let finalizer = if register_finalizers then Some ("list-" ^ string_of_int i) else None in
        let head =
          Machine.call m ~slots:3 (fun frame ->
              let head = alloc_cycle r m ~peak ~finalizer ~cell_bytes ~n:nodes in
              Machine.set_local frame 0 (Addr.to_int head);
              head)
        in
        Machine.write_root_word m env.Platform.data (a_slot env i) (Addr.to_int head)
      done;
      for i = 0 to lists - 1 do
        Machine.set_local frame 0 i;
        Machine.write_root_word m env.Platform.data (a_slot env i) 0
      done)

let gcollect (r : Meter.run) env =
  Machine.call env.Platform.machine ~slots:8 (fun _ -> Meter.collect r.col env.Platform.gc)

(* The timed phase of one row; returns the lists retained. *)
let experiment r env rng (platform : Platform.t) ~peak =
  let lists = platform.Platform.lists and cell_bytes = platform.Platform.cell_bytes in
  test r env ~peak ~register_finalizers:true ~lists ~cell_bytes ~nodes:platform.Platform.nodes_per_list;
  Platform.churn env platform rng;
  gcollect r env;
  test r env ~peak ~register_finalizers:false ~lists ~cell_bytes ~nodes:2;
  Platform.churn env platform rng;
  gcollect r env;
  let collected = ref 0 in
  let count_tokens () =
    List.iter
      (fun (_, tok) -> if String.length tok >= 5 && String.sub tok 0 5 = "list-" then incr collected)
      (Cgc.Gc.drain_finalized env.Platform.gc)
  in
  count_tokens ();
  let rec settle tries =
    let before = !collected in
    gcollect r env;
    count_tokens ();
    if !collected > before && tries > 0 then settle (tries - 1)
  in
  settle 4;
  lists - !collected

(* Bytes of the live ballast chain, walked from its root; the chain must
   still hold every record. *)
let ballast_bytes r row =
  let env = row.env in
  let gc = env.Platform.gc in
  let rec walk a n bytes =
    if a = 0 then (n, bytes)
    else
      match Cgc.Gc.object_size gc (Addr.of_int a) with
      | None -> (n + 1, bytes)
      | Some b -> walk (Cgc.Gc.get_field gc (Addr.of_int a) 0) (n + 1) (bytes + b)
  in
  let n, bytes = walk (Machine.read_root_word env.Platform.machine env.Platform.data (ballast_root env)) 0 0 in
  if n <> row.ballast_records then
    Meter.fail r (Printf.sprintf "ballast chain holds %d of %d records" n row.ballast_records);
  bytes

let pass (r : Meter.run) ~seed scale =
  let setup_ns = Array.make setups 0 in
  let last = List.length scale.rows - 1 in
  List.iteri
    (fun i platform ->
      let nodes = platform.Platform.nodes_per_list / scale.nodes_divisor in
      let platform = Platform.scale ?lists:scale.lists ~nodes_per_list:nodes platform in
      let lists = platform.Platform.lists
      and nodes = platform.Platform.nodes_per_list
      and cell_bytes = platform.Platform.cell_bytes in
      let live_estimate = (lists * nodes * cell_bytes) + platform.Platform.other_live_bytes in
      let heap_max = max (4 * live_estimate) (8 * 1024 * 1024) in
      let row = ref None in
      for k = 0 to setups - 1 do
        row := None;
        Stdlib.Gc.full_major ();
        let t0 = Meter.now () in
        row := Some (setup ~seed ~heap_max platform);
        setup_ns.(k) <- setup_ns.(k) + (Meter.now () - t0)
      done;
      let row = Option.get !row in
      let env = row.env in
      let gc = env.Platform.gc in
      let m = env.Platform.machine in
      let s = Cgc.Gc.stats gc in
      let s0 = Cgc.Stats.copy s in
      let peak = ref (Cgc.Heap.committed_bytes (Cgc.Gc.heap gc)) in
      let col0 = r.col.collections and allocs0 = Machine.allocation_count m in
      Meter.install_hook r.col gc;
      let t0 = Meter.now () in
      let retained_lists = experiment r env row.rng platform ~peak in
      r.timed_ns <- r.timed_ns + (Meter.now () - t0);
      Cgc.Gc.set_collect_hook gc None;
      let allocs = Machine.allocation_count m - allocs0 in
      r.allocs <- r.allocs + allocs;
      r.attempted <- r.attempted + allocs;
      let ballast = ballast_bytes r row in
      let retained = Cgc.Gc.live_bytes gc - ballast in
      r.retained <- r.retained + retained;
      r.peak_committed <- r.peak_committed + !peak;
      r.peak_reachable <- r.peak_reachable + (ballast + (lists * nodes * cell_bytes));
      r.ladder_steps <- r.ladder_steps + (Meter.ladder_steps s - Meter.ladder_steps s0);
      r.heap_expansions <- r.heap_expansions + (s.heap_expansions - s0.heap_expansions);
      r.blacklist_pages <- r.blacklist_pages + Cgc.Gc.blacklisted_pages gc;
      r.rejected_pages <- r.rejected_pages + (s.blacklist_rejected_pages - s0.blacklist_rejected_pages);
      r.counts <-
        [
          ("retained_lists", retained_lists);
          ("collections", r.col.collections - col0);
          ("words_scanned", s.words_scanned);
          ("objects_marked", s.objects_marked);
          ("objects_freed", s.objects_freed);
          ("peak_committed", !peak);
          ("retained", retained);
        ]
        :: r.counts;
      if Meter.traced r then begin
        if i = last then r.jobs2_speedup <- Meter.jobs2_speedup gc
      end
      else begin
        (* the gate: the copy retains exactly what the library run does *)
        let expected =
          (Program_t.run ~seed ~blacklisting:true platform)
            .Program_t.retained
        in
        Printf.printf "  %-18s seed %d: retained %d of %d lists (Program_t.run: %d)\n"
          platform.Platform.name seed retained_lists lists expected;
        if expected <> retained_lists then
          Meter.fail r
            (Printf.sprintf "%s: retained %d lists, Program_t.run retains %d" platform.Platform.name
               retained_lists expected)
      end)
    scale.rows;
  Array.iter (fun ns -> r.setups <- (float_of_int ns /. 1e9) :: r.setups) setup_ns
