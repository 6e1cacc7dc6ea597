(** Collector configuration.

    Every technique studied in the paper is an independent knob here, so
    experiments can ablate them: blacklisting (section 3), interior
    pointer recognition and scan alignment (section 2), treatment of
    pointers into the middle of large objects (section 3, observation 7),
    and the allocator's avoidance of addresses with many trailing zeros
    (section 2, figure 1). *)

type large_validity =
  | Anywhere
      (** any pointer into a large object retains it — the strict
          interior-pointer regime that makes > 100 KB objects hard to
          place (paper observation 7) *)
  | First_page_only
      (** only pointers into the object's first page are valid; the
          paper notes the blacklist problem "is never a problem if
          addresses that do not point to the first page of an object can
          be considered invalid" *)

type t = {
  page_size : int;  (** bytes per heap block; a power of two *)
  granule : int;  (** allocation granularity in bytes (the machine word, 4) *)
  interior_pointers : bool;
      (** recognize pointers to object interiors, "often required if the
          source language requires that array elements can be passed by
          reference" *)
  valid_displacements : int list;
      (** when [interior_pointers] is off, interior pointers at exactly
          these byte displacements are still recognized (the
          registered-displacement compromise used by language
          implementations whose objects carry a known header offset);
          offset 0 is always valid *)
  large_validity : large_validity;
      (** only consulted when [interior_pointers] is true *)
  alignment : int;
      (** granularity (1, 2 or 4 bytes) at which scanned memory is
          examined for pointers; 4 models compilers that guarantee
          alignment, below 4 models the unpleasant unaligned case *)
  blacklisting : bool;  (** the paper's central technique *)
  blacklist_buckets : int option;
      (** [None]: exact bit array indexed by page number.  [Some n]: the
          paper's hash-table variant with [n] one-bit buckets (pages
          colliding with a false reference's bucket are also treated as
          black) *)
  blacklist_refresh : bool;
      (** when true, "blacklisted values that are no longer found by a
          later collection may be removed from the list" (two-cycle
          aging); when false the blacklist only grows *)
  atomic_on_black_pages : bool;
      (** allow small pointer-free objects to be allocated on
          blacklisted pages, since "very little memory will ever be
          reachable from these objects" *)
  avoid_trailing_zeros : int option;
      (** [Some k]: never place an object at an address with [>= k]
          trailing zero bits (counters the figure-1 halfword hazard) *)
  initial_pages : int;  (** pages committed up front *)
  space_divisor : int;
      (** collect when bytes allocated since the last collection exceed
          committed-heap-bytes / [space_divisor]; smaller keeps the heap
          tighter at the price of more frequent collections *)
  mark_stack_limit : int option;
      (** bound on the explicit mark stack; on overflow the marker drops
          entries and recovers by rescanning marked objects until a
          fixpoint (the classic Boehm-collector strategy).  [None] means
          unbounded. *)
  full_gc_at_startup : bool;
      (** "at least one (normally very fast) garbage collection occurring
          just after system start up before any allocation has taken
          place" — this is what lets blacklisting defeat static-data
          false references *)
  relax_blacklist : bool;
      (** permit the allocation ladder's blacklist-relaxation rungs: a
          request starved by black pages may fall back to first-page-only
          placement and finally to allocating on blacklisted pages
          outright (counted in {!Stats}).  Off by default so retention
          experiments keep the paper's strict regime — relaxation trades
          the blacklist's space guarantee for availability, Boehm's
          pragmatic answer to observation 7 *)
}

val default : t
(** 4 KB pages, 4-byte granules, interior pointers on ([Anywhere]),
    aligned scanning, blacklisting on with refresh (exact bit array),
    atomic-on-black on, no trailing-zero avoidance, 64 initial pages,
    space divisor 3, eager sweep, unbounded mark stack, startup
    collection on, blacklist relaxation off.  Every allocation is
    cleared, as [GC_malloc]'s are, and the grow rung commits up to 256
    pages at a time (see {!Gc}). *)

val validate : t -> unit
(** @raise Invalid_argument on inconsistent settings. *)

val max_small_bytes : t -> int
(** Largest request served from size-classed pages ([page_size / 2]);
    larger requests become multi-page "large" objects. *)

val displacement_mask : t -> int array
(** Bitmask form of [valid_displacements] for the scan fast path: bit
    [d / granule] (62 bits per array word) is set iff byte displacement
    [d] is recognized.  Bit 0 is always set. *)

val displacement_in_mask : int array -> granule:int -> int -> bool
(** [displacement_in_mask mask ~granule d]: whether displacement [d] is
    recognized — equivalent to
    [d = 0 || List.mem d valid_displacements] on the mask's source
    config, in O(1). *)

val pp : Format.formatter -> t -> unit
