(** Internal consistency checking.

    [check gc] audits the collector's data structures — page-table
    shape, free-list integrity, generation-independent accounting — and
    returns a list of human-readable violations (empty when healthy).
    Tests run it after randomized operation sequences; it is cheap
    enough to call in anger when debugging the collector itself. *)

val check : Gc.t -> string list
(** Verified invariants:
    - committed/uncommitted page-table shape is well-formed;
    - every large object's tail pages point back at its head and lie
      within the object's extent;
    - small-page geometry fits inside the page;
    - the flat descriptor table ({!Heap.desc}) agrees row-by-row with
      the page variants, including physical identity of the shared
      bitsets and large-object records the scan fast path mutates;
    - mark bits only cover allocated slots (and a marked large head is
      an allocated one): no marker — serial or parallel — ever marks a
      free or quarantine-removed slot;
    - every free-list entry addresses an unallocated, correctly aligned
      slot of a page of the matching size class and kind, and no slot
      appears twice;
    - every registered finalizer watches a currently allocated object;
    - [Heap.live_bytes] is internally consistent with the page
      descriptors. *)

val check_after_collect : Gc.t -> string list
(** Everything {!check} does, plus post-collection-only invariants: all
    small-page mark bits are clear and the statistics' live counters
    agree with the heap. *)

val check_after_fault : Gc.t -> string list
(** Everything {!check} does, plus the crash-coherence invariants an
    injected fault must not break: no large object extends past the
    committed watermark (a run cut short mid-commit must have been
    abandoned as [Free] pages), every size-class page's allocated +
    free-listed slots fit its capacity (no half-initialized carve), and
    no free-list slot lives on a quarantined (decayed) page. *)

val check_heap : Heap.t -> string list
(** The heap-level subset of {!check} — page-table shape, descriptor
    coherence and the mark ⊆ alloc audit — usable against any backend
    sharing the page substrate (e.g. the {!Explicit} baseline), without
    needing a [Gc.t]. *)

val check_precise_mark : Precise.t -> string list
(** Audit the precise (type-accurate) view against its wrapped heap:
    {!check_heap} (whose mark ⊆ alloc audit covers the exact marker's
    bits too), the layout table describes only allocated objects
    (sweeps must evict), no root provider names a freed or decayed
    address, and — the two-discipline inclusion — every object in the
    exact-reachable closure is covered by a shadow conservative mark of
    the same heap (precise marks ⊆ conservative marks).  Any armed
    fault plan is lifted for the duration and restored, and the shadow
    mark is fully unwound (mark bits, blacklist cycle, statistics), so
    the audit never perturbs the experiment it is auditing.  Safe to
    call at any point, including right after an aborted precise mark. *)

val check_parallel_mark : Gc.t -> Mark.Parallel.outcome -> string list
(** [check_parallel_mark gc o]: post-parallel-mark audit of the outcome
    [o] that [Gc.Internal.run_mark_parallel] returned, valid until the
    next sweep or allocation.  Includes {!check_heap} (whose
    mark ⊆ alloc audit rules out mark bits on free or
    quarantine-removed slots), checks that no unallocated large object
    is flagged, and — when the tracer really ran parallel — that the
    per-domain [Stats.objects_marked] shards sum to the number of mark
    bits present in the heap: the exactly-once evidence of the
    shadow-table CAS protocol plus a lossless write-back. *)
