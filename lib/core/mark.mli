(** Conservative marking with blacklisting — the paper's figure 2.

    {v
    mark(p) {
      if p is not a valid object address
        if p is in the vicinity of the heap
          add p to blacklist
        return
      if p is marked return
      set mark bit for p
      for each field q in the object referenced by p
        mark(q)
    }
    v}

    The recursion is realised with an explicit mark stack; "fields" are
    every word of the object at the configured alignment, since the
    collector has no layout information.

    Two implementations share one marker state: the default fast path
    (flat page-descriptor rows from {!Heap.desc}, a one-entry header
    cache, closure-free endianness-specialized scan loops, displacement
    bitmasks) and the pre-optimization {!Reference} transcription, kept
    as the oracle the differential tests pin the fast path against. *)

open Cgc_vm

type classification =
  | Valid of { base : Addr.t; page : int }
      (** a reference to (possibly the interior of) a live object *)
  | False_in_heap of { page : int }
      (** not a valid object address, but within the reserved heap
          region — a candidate for blacklisting *)
  | Outside  (** cannot be or become a heap pointer *)

val classify : Heap.t -> Config.t -> int -> classification
(** Classify a scanned word value.  Pure with respect to mark state. *)

type t

val create : Heap.t -> Config.t -> Blacklist.t -> Stats.t -> t

val run : t -> Roots.t -> mem:Mem.t -> unit
(** Perform a full mark phase: clear all mark bits, open a blacklist
    cycle, scan every root source, and transitively mark through
    pointer-bearing heap objects.  Statistics are updated; the heap's
    mark bits are left set for the sweeper. *)

val mark_value : t -> int -> unit
(** Feed a single word value to the marker and drain the mark stack —
    exposed for tests and for the retention harness's injected false
    references. *)

(** The pre-optimization marker, running against the same state ([t]),
    page table, blacklist and statistics.  Produces bit-identical mark
    bitmaps, blacklists and counters to the fast path (modulo
    [Stats.header_cache_hits], which only the fast path touches); the
    benchmark suite reports the throughput ratio between the two. *)
module Reference : sig
  val run : t -> Roots.t -> mem:Mem.t -> unit
  val mark_value : t -> int -> unit
end

(** The parallel tracer: N marker domains, each with a private
    Chase-Lev mark stack ({!Cgc_vm.Ws_deque}) and a private one-entry
    header cache, pulling root tasks from a shared queue and stealing
    object work from each other.  Mark bits are won through atomic
    shadow tables ({!Cgc_vm.Bitset.Atomic.test_and_set}) written back
    serially after the domains join; blacklist notes are buffered
    per-domain (pre-bucketed) and merged at the end barrier; stats
    shards are summed so every counter keeps its serial meaning.
    Mark-stack overflow generalizes the serial page rescan to "any idle
    domain claims the next committed page".

    The result — mark bitmap, blacklist, downgrade behavior — is
    bit-identical to the serial marker for any [jobs], pinned by the
    [test_mark_diff] QCheck differential.  It has never run faster
    than the serial marker, so the collector never selects it: it is
    reachable only through [Gc.Internal.run_mark_parallel]. *)
module Parallel : sig
  type fallback =
    | Serial_configured  (** [jobs <= 1]: the serial fast path, by design *)
    | Access_plan_armed
        (** a [Mem.Fault] access plan is armed; its trip streams are
            stateful (countdowns, seeded draws) and cannot be raced
            across domains, so the serial marker ran instead *)

  type outcome = {
    jobs_requested : int;
    domains_used : int;  (** [jobs_requested] when parallel, 1 on fallback *)
    fallback : fallback option;  (** [None] iff the parallel tracer ran *)
    shards : Stats.t array;
        (** per-domain stats snapshots (empty on fallback); their
            trace-phase counters sum to the serial totals *)
  }

  val run : t -> Roots.t -> mem:Mem.t -> jobs:int -> outcome
  (** Like {!run}, with [jobs] marker domains.  [jobs <= 1] or an armed
      access plan runs the serial marker and says so in the outcome. *)
end
