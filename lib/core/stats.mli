(** Collector statistics.

    Besides the usual allocation/reclamation counters, we count the
    quantities the paper reports on directly: false references seen
    while marking, blacklist bookkeeping operations (behind the "usually
    less than 1%" overhead claim of footnote 3), and per-phase time. *)

type t = {
  mutable collections : int;
  mutable words_scanned : int;  (** root + heap words examined by the marker *)
  mutable valid_refs : int;  (** scanned values that named a live object *)
  mutable false_refs : int;  (** scanned values inside the heap region that named no object *)
  mutable objects_marked : int;
  mutable header_cache_hits : int;
      (** marker header lookups answered by the one-entry page cache *)
  mutable bytes_allocated : int;  (** cumulative *)
  mutable objects_allocated : int;
  mutable bytes_freed : int;
  mutable objects_freed : int;
  mutable live_bytes : int;  (** after the most recent sweep *)
  mutable live_objects : int;
  mutable heap_expansions : int;
      (** placements that grew the committed heap: a fresh small page
          committed past the watermark, or a large run whose commit
          raised it (a run placed entirely on committed pages does not
          count) *)
  mutable mark_stack_overflows : int;
  mutable blacklist_alloc_checks : int;  (** allocation-side page checks *)
  mutable blacklist_rejected_pages : int;  (** fresh-page choices vetoed by the blacklist *)
  mutable ladder_collects : int;
      (** allocation-ladder rung: collections forced by a failed request *)
  mutable ladder_drains : int;
      (** always 0: the collector sweeps eagerly and has no drain rung.
          Kept only because the layered benchmark's ladder meter still
          sums it; the next benchmark change retires the field. *)
  mutable ladder_trims : int;  (** rung: trailing free pages released and the request retried *)
  mutable ladder_expansions : int;  (** rung: heap growth attempts on behalf of a request *)
  mutable ladder_backoffs : int;
      (** expansion-size halvings after a grow attempt was refused by the (simulated) OS *)
  mutable ladder_relax_first_page : int;
      (** rung: blacklist strictness dropped to first-page-only for a starved request *)
  mutable ladder_relax_black : int;
      (** rung: allocation permitted on blacklisted pages outright *)
  mutable ladder_oom_hooks : int;  (** rung: registered out-of-memory hook invocations *)
  mutable commit_faults : int;  (** injected commit/map failures absorbed by the ladder *)
  mutable read_faults : int;
      (** injected read failures observed by the collector (mark-phase
          probes plus field accessors) *)
  mutable write_faults : int;
      (** injected write failures observed by the collector (allocation
          zeroing plus field accessors) *)
  mutable mark_downgrades : int;
      (** mark-phase words downgraded to "not a pointer" after a read
          fault: the word is skipped, never retained *)
  mutable pages_decayed : int;  (** heap pages quarantined after a decay write fault *)
  mutable decay_retries : int;
      (** allocations retried after the returned slot's memory decayed
          (or its page was quarantined) under the allocator *)
  mutable oom_raised : int;  (** structured [Out_of_memory] raises after the ladder ran dry *)
  mutable precise_collections : int;
      (** exact (type-accurate) collections completed by {!Precise.collect} *)
  mutable precise_mark_aborts : int;
      (** exact mark phases abandoned after an unrecoverable access
          fault, with the pre-collect mark state restored *)
  mutable precise_mark_retries : int;
      (** transient re-reads of an exact pointer slot that faulted during
          a precise mark before the bounded retry budget gave up *)
  mutable precise_stale_roots : int;
      (** exact root-provider slots naming freed or decayed addresses —
          counted and audited rather than silently skipped *)
  mutable mark_seconds : float;
  mutable sweep_seconds : float;
  mutable total_gc_seconds : float;
}

val now : unit -> float
(** Monotonic wall-clock time in seconds, the timebase of
    [mark_seconds], [sweep_seconds] and [total_gc_seconds].  Not
    [Sys.time]: process CPU time would also count the CPU of every other
    running domain. *)

val create : unit -> t
val reset : t -> unit
val copy : t -> t

val blit : t -> into:t -> unit
(** [blit src ~into] copies every field of [src] into [into], in place.
    The restore half of a [copy]-snapshot for callers that run a
    speculative phase (e.g. a verifier's shadow mark) against live
    counters and must leave them exactly as found. *)

val merge_marking : into:t -> t -> unit
(** Fold one parallel-marker domain shard into the session totals: sums
    the trace-phase counters ([words_scanned], [valid_refs],
    [false_refs], [objects_marked], [header_cache_hits],
    [mark_stack_overflows], [mark_downgrades]) and leaves every other
    field of [into] untouched.  Because the domains partition the
    serial marker's work exactly, the summed counters keep their
    serial meaning.  The consumed counters are zeroed in the shard, so
    the merge is a {e transfer}: merging the same shard twice is
    idempotent. *)

val pp : Format.formatter -> t -> unit
