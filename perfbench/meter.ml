(* Clocks, sample buffers and the timed collection used by every
   workload.  Times are int nanoseconds from the monotonic wall clock;
   [Sys.time] would count CPU time, and the collector's own [Stats]
   seconds are measured inside the program under test. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* Growable int buffer: recording a sample allocates nothing until the
   buffer doubles, so the OCaml heap stays out of the timed code. *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    Array.unsafe_set t.a t.n v;
    t.n <- t.n + 1

  let length t = t.n

  let sum t =
    let s = ref 0 in
    for i = 0 to t.n - 1 do
      s := !s + t.a.(i)
    done;
    !s

  let sorted t =
    let a = Array.sub t.a 0 t.n in
    Array.sort Int.compare a;
    a
end

(* Nearest-rank percentile of a sorted array.  A percentile is refused
   unless at least [min_beyond] samples lie above it, so a p90 needs 100
   samples and a p50 needs 20. *)
let min_beyond = 10

let percentile sorted p =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
  if n - rank < min_beyond then
    Error
      (Printf.sprintf "p%g of %d samples has %d beyond it, needs %d" p n (max 0 (n - rank))
         min_beyond)
  else Ok sorted.(rank - 1)

let median_float values =
  match List.sort Float.compare values with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median_ns samples =
  if Samples.length samples = 0 then 0. else float_of_int (Samples.sorted samples).(Samples.length samples / 2)

(* Per-layer accumulators of the traced collection split. *)
type layers = {
  mark_ns : Samples.t;
  sweep_ns : Samples.t;
  mutable words : int;
  mutable root_words : int;
  mutable objects_marked : int;
  mutable valid_refs : int;
  mutable false_refs : int;
  mutable blacklist_ops : int;
  mutable swept_objects : int;
  mutable visited_objects : int;
  mutable pages_released : int;
}

(* One meter per pass of a collected workload.  Untraced, a collection
   is a timed [Gc.collect]; traced, it is the same work split into timed
   [run_mark] and [run_sweep] with counter deltas around each.  Either
   way the benchmark counts the collection itself, because the split
   bypasses [Stats.collections]. *)
type collector = {
  traced : bool;
  pauses : Samples.t;
  mutable collections : int;
  layers : layers;
}

let collector ~traced =
  {
    traced;
    pauses = Samples.create ();
    collections = 0;
    layers =
      {
        mark_ns = Samples.create ();
        sweep_ns = Samples.create ();
        words = 0;
        root_words = 0;
        objects_marked = 0;
        valid_refs = 0;
        false_refs = 0;
        blacklist_ops = 0;
        swept_objects = 0;
        visited_objects = 0;
        pages_released = 0;
      };
  }

let root_words gc =
  let align = (Cgc.Gc.config gc).Cgc.Config.alignment in
  List.fold_left
    (fun acc r -> acc + (Cgc_vm.Addr.diff r.Cgc.Roots.hi r.Cgc.Roots.lo / align))
    0
    (Cgc.Roots.current_ranges (Cgc.Gc.Internal.roots gc))

let collect m gc =
  if not m.traced then begin
    let t0 = now () in
    Cgc.Gc.collect gc;
    Samples.add m.pauses (now () - t0)
  end
  else begin
    let l = m.layers in
    let s = Cgc.Gc.stats gc in
    let bl = Cgc.Gc.blacklist gc in
    l.root_words <- l.root_words + root_words gc;
    let w0 = s.Cgc.Stats.words_scanned
    and o0 = s.Cgc.Stats.objects_marked
    and v0 = s.Cgc.Stats.valid_refs
    and f0 = s.Cgc.Stats.false_refs
    and b0 = Cgc.Blacklist.ops bl in
    let t0 = now () in
    Cgc.Gc.Internal.run_mark gc;
    let t1 = now () in
    let r = Cgc.Gc.Internal.run_sweep gc in
    let t2 = now () in
    Cgc.Gc.Internal.note_collected gc;
    Samples.add l.mark_ns (t1 - t0);
    Samples.add l.sweep_ns (t2 - t1);
    Samples.add m.pauses (t2 - t0);
    l.words <- l.words + (s.Cgc.Stats.words_scanned - w0);
    l.objects_marked <- l.objects_marked + (s.Cgc.Stats.objects_marked - o0);
    l.valid_refs <- l.valid_refs + (s.Cgc.Stats.valid_refs - v0);
    l.false_refs <- l.false_refs + (s.Cgc.Stats.false_refs - f0);
    l.blacklist_ops <- l.blacklist_ops + (Cgc.Blacklist.ops bl - b0);
    l.swept_objects <- l.swept_objects + r.Cgc.Sweep.swept_objects;
    l.visited_objects <- l.visited_objects + r.Cgc.Sweep.swept_objects + r.Cgc.Sweep.live_objects;
    l.pages_released <- l.pages_released + r.Cgc.Sweep.pages_released
  end;
  m.collections <- m.collections + 1

let install_hook m gc = Cgc.Gc.set_collect_hook gc (Some (fun () -> collect m gc))

(* Spans around single calls into a layer, recorded by traced passes
   only: the clock is never read around a sub-microsecond call in an
   untraced pass. *)
type spans = {
  alloc_small : Samples.t;  (** [Gc.allocate] of a small scanned object that ran no collection *)
  alloc_atomic : Samples.t;  (** the same for a small pointer-free object *)
  alloc_large : Samples.t;  (** the same for a multi-page object *)
  machine_alloc : Samples.t;  (** [Machine.allocate] that ran no collection *)
  malloc : Samples.t;
  free : Samples.t;
  get_field : Samples.t;
  set_field : Samples.t;
}

(* Everything one mode (untraced or traced) of one process measures,
   pooled over its passes.  A pass is one fixed unit of work, so every
   count in [counts] depends only on the seed and the pass number. *)
type run = {
  col : collector;
  spans : spans;
  mutable free_ns : int;  (** time inside [Explicit.free], timed per batch *)
  mutable setups : float list;  (** seconds, one per set-up *)
  mutable timed_ns : int;
  mutable allocs : int;
  mutable peak_committed : int;  (** bytes, summed over passes *)
  mutable peak_reachable : int;  (** bytes, summed over passes *)
  mutable retained : int;  (** bytes, summed over passes *)
  mutable attempted : int;
  mutable failures : string list;
  mutable ladder_steps : int;
  mutable heap_expansions : int;
  mutable blacklist_pages : int;
  mutable rejected_pages : int;
  mutable fragmentation : float list;
  mutable jobs2_speedup : float;
  mutable counts : (string * int) list list;  (** per pass, newest first *)
}

let run ~traced =
  let s () = Samples.create () in
  {
    col = collector ~traced;
    spans =
      {
        alloc_small = s ();
        alloc_atomic = s ();
        alloc_large = s ();
        machine_alloc = s ();
        malloc = s ();
        free = s ();
        get_field = s ();
        set_field = s ();
      };
    free_ns = 0;
    setups = [];
    timed_ns = 0;
    allocs = 0;
    peak_committed = 0;
    peak_reachable = 0;
    retained = 0;
    attempted = 0;
    failures = [];
    ladder_steps = 0;
    heap_expansions = 0;
    blacklist_pages = 0;
    rejected_pages = 0;
    fragmentation = [];
    jobs2_speedup = 0.;
    counts = [];
  }

let fail r msg = r.failures <- msg :: r.failures
let traced r = r.col.traced

(* Sum of every allocation-ladder rung counter. *)
let ladder_steps (s : Cgc.Stats.t) =
  s.ladder_collects + s.ladder_drains + s.ladder_trims + s.ladder_expansions + s.ladder_backoffs
  + s.ladder_relax_first_page + s.ladder_relax_black + s.ladder_oom_hooks

(* ROADMAP item 3's decision number: re-mark the same heap serially and
   with two marker domains (never more domains than the host offers),
   alternating, and divide the medians.  Each mark is followed by a
   sweep so the next one starts from cleared mark bits; the heap is at
   a fixpoint, so the sweeps free nothing. *)
let jobs2_speedup gc =
  let jobs = min 2 (Domain.recommended_domain_count ()) in
  let serial = ref [] and parallel = ref [] in
  for _ = 1 to 5 do
    let t0 = now () in
    Cgc.Gc.Internal.run_mark gc;
    let t1 = now () in
    ignore (Cgc.Gc.Internal.run_sweep gc);
    let t2 = now () in
    ignore (Cgc.Gc.Internal.run_mark_parallel gc ~jobs);
    let t3 = now () in
    ignore (Cgc.Gc.Internal.run_sweep gc);
    serial := float_of_int (t1 - t0) :: !serial;
    parallel := float_of_int (t3 - t2) :: !parallel
  done;
  median_float !serial /. median_float !parallel
