type t = {
  mutable collections : int;
  mutable words_scanned : int;
  mutable valid_refs : int;
  mutable false_refs : int;
  mutable objects_marked : int;
  mutable header_cache_hits : int;
  mutable bytes_allocated : int;
  mutable objects_allocated : int;
  mutable bytes_freed : int;
  mutable objects_freed : int;
  mutable live_bytes : int;
  mutable live_objects : int;
  mutable heap_expansions : int;
  mutable mark_stack_overflows : int;
  mutable blacklist_alloc_checks : int;
  mutable blacklist_rejected_pages : int;
  mutable ladder_collects : int;
  mutable ladder_drains : int;
  mutable ladder_trims : int;
  mutable ladder_expansions : int;
  mutable ladder_backoffs : int;
  mutable ladder_relax_first_page : int;
  mutable ladder_relax_black : int;
  mutable ladder_oom_hooks : int;
  mutable commit_faults : int;
  mutable read_faults : int;
  mutable write_faults : int;
  mutable mark_downgrades : int;
  mutable pages_decayed : int;
  mutable decay_retries : int;
  mutable oom_raised : int;
  mutable precise_collections : int;
  mutable precise_mark_aborts : int;
  mutable precise_mark_retries : int;
  mutable precise_stale_roots : int;
  mutable mark_seconds : float;
  mutable sweep_seconds : float;
  mutable total_gc_seconds : float;
}

let create () =
  {
    collections = 0;
    words_scanned = 0;
    valid_refs = 0;
    false_refs = 0;
    objects_marked = 0;
    header_cache_hits = 0;
    bytes_allocated = 0;
    objects_allocated = 0;
    bytes_freed = 0;
    objects_freed = 0;
    live_bytes = 0;
    live_objects = 0;
    heap_expansions = 0;
    mark_stack_overflows = 0;
    blacklist_alloc_checks = 0;
    blacklist_rejected_pages = 0;
    ladder_collects = 0;
    ladder_drains = 0;
    ladder_trims = 0;
    ladder_expansions = 0;
    ladder_backoffs = 0;
    ladder_relax_first_page = 0;
    ladder_relax_black = 0;
    ladder_oom_hooks = 0;
    commit_faults = 0;
    read_faults = 0;
    write_faults = 0;
    mark_downgrades = 0;
    pages_decayed = 0;
    decay_retries = 0;
    oom_raised = 0;
    precise_collections = 0;
    precise_mark_aborts = 0;
    precise_mark_retries = 0;
    precise_stale_roots = 0;
    mark_seconds = 0.;
    sweep_seconds = 0.;
    total_gc_seconds = 0.;
  }

(* Phase times come from a monotonic wall clock: [Sys.time] is process
   CPU time, which also counts every other running domain. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let copy t = { t with collections = t.collections }

(* Copy every field of [src] back into [into], in place.  The inverse of
   [copy] for callers that took a snapshot, ran a speculative phase (a
   verifier's shadow mark, say), and want the observable counters exactly
   as they were — without replacing the record other modules hold. *)
let blit src ~into =
  into.collections <- src.collections;
  into.words_scanned <- src.words_scanned;
  into.valid_refs <- src.valid_refs;
  into.false_refs <- src.false_refs;
  into.objects_marked <- src.objects_marked;
  into.header_cache_hits <- src.header_cache_hits;
  into.bytes_allocated <- src.bytes_allocated;
  into.objects_allocated <- src.objects_allocated;
  into.bytes_freed <- src.bytes_freed;
  into.objects_freed <- src.objects_freed;
  into.live_bytes <- src.live_bytes;
  into.live_objects <- src.live_objects;
  into.heap_expansions <- src.heap_expansions;
  into.mark_stack_overflows <- src.mark_stack_overflows;
  into.blacklist_alloc_checks <- src.blacklist_alloc_checks;
  into.blacklist_rejected_pages <- src.blacklist_rejected_pages;
  into.ladder_collects <- src.ladder_collects;
  into.ladder_drains <- src.ladder_drains;
  into.ladder_trims <- src.ladder_trims;
  into.ladder_expansions <- src.ladder_expansions;
  into.ladder_backoffs <- src.ladder_backoffs;
  into.ladder_relax_first_page <- src.ladder_relax_first_page;
  into.ladder_relax_black <- src.ladder_relax_black;
  into.ladder_oom_hooks <- src.ladder_oom_hooks;
  into.commit_faults <- src.commit_faults;
  into.read_faults <- src.read_faults;
  into.write_faults <- src.write_faults;
  into.mark_downgrades <- src.mark_downgrades;
  into.pages_decayed <- src.pages_decayed;
  into.decay_retries <- src.decay_retries;
  into.oom_raised <- src.oom_raised;
  into.precise_collections <- src.precise_collections;
  into.precise_mark_aborts <- src.precise_mark_aborts;
  into.precise_mark_retries <- src.precise_mark_retries;
  into.precise_stale_roots <- src.precise_stale_roots;
  into.mark_seconds <- src.mark_seconds;
  into.sweep_seconds <- src.sweep_seconds;
  into.total_gc_seconds <- src.total_gc_seconds

let reset t = blit (create ()) ~into:t

(* Fold one parallel-marker domain shard into the session totals.  Only
   the counters the trace phase touches are summed, so every existing
   counter keeps its serial meaning: the per-domain contributions
   partition the serial work exactly (each root word is scanned by one
   domain; each object is scanned by the domain that won its mark bit).
   The consumed counters are zeroed in the shard so merging is a
   transfer, not a copy: merging the same shard twice contributes
   nothing the second time. *)
let merge_marking ~into shard =
  into.words_scanned <- into.words_scanned + shard.words_scanned;
  into.valid_refs <- into.valid_refs + shard.valid_refs;
  into.false_refs <- into.false_refs + shard.false_refs;
  into.objects_marked <- into.objects_marked + shard.objects_marked;
  into.header_cache_hits <- into.header_cache_hits + shard.header_cache_hits;
  into.mark_stack_overflows <- into.mark_stack_overflows + shard.mark_stack_overflows;
  into.mark_downgrades <- into.mark_downgrades + shard.mark_downgrades;
  shard.words_scanned <- 0;
  shard.valid_refs <- 0;
  shard.false_refs <- 0;
  shard.objects_marked <- 0;
  shard.header_cache_hits <- 0;
  shard.mark_stack_overflows <- 0;
  shard.mark_downgrades <- 0

let pp ppf t =
  Format.fprintf ppf
    "@[<v>collections     %d@,\
     words scanned   %d@,\
     valid refs      %d@,\
     false refs      %d@,\
     objects marked  %d@,\
     header cache    %d hits@,\
     allocated       %d objects / %d bytes@,\
     freed           %d objects / %d bytes@,\
     live            %d objects / %d bytes@,\
     heap expansions %d@,\
     mark overflows  %d@,\
     blacklist       %d alloc checks, %d pages rejected@,\
     ladder          %d collects, %d trims, %d grows (%d backoffs)@,\
     relaxation      %d first-page, %d on-black, %d oom hooks@,\
     faults          %d commit faults, %d OOM raised@,\
     access faults   %d reads (%d mark downgrades), %d writes@,\
     decay           %d pages quarantined, %d alloc retries@,\
     precise         %d collects, %d mark aborts, %d retries, %d stale roots@,\
     gc time         %.6fs (mark %.6fs, sweep %.6fs)@]"
    t.collections t.words_scanned t.valid_refs t.false_refs t.objects_marked t.header_cache_hits
    t.objects_allocated
    t.bytes_allocated t.objects_freed t.bytes_freed t.live_objects t.live_bytes t.heap_expansions
    t.mark_stack_overflows t.blacklist_alloc_checks t.blacklist_rejected_pages
    t.ladder_collects t.ladder_trims t.ladder_expansions t.ladder_backoffs
    t.ladder_relax_first_page t.ladder_relax_black t.ladder_oom_hooks
    t.commit_faults t.oom_raised
    t.read_faults t.mark_downgrades t.write_faults
    t.pages_decayed t.decay_retries
    t.precise_collections t.precise_mark_aborts t.precise_mark_retries t.precise_stale_roots
    t.total_gc_seconds t.mark_seconds t.sweep_seconds
