(** The conservative garbage collector — public facade.

    A [Gc.t] owns a reserved heap region inside a simulated address
    space ({!Cgc_vm.Mem}), allocates headerless objects from
    size-classed pages, and reclaims them by conservative mark-sweep
    with page blacklisting, reproducing the collector of Boehm's
    PLDI'93 paper.

    Typical use:
    {[
      let mem = Mem.create () in
      let gc = Gc.create mem ~base:(Addr.of_int 0x400000) ~max_bytes:(8*1024*1024) () in
      Gc.add_static_root gc ~lo ~hi ~label:"data";
      let cell = Gc.allocate gc 8 in
      Gc.set_field gc cell 0 some_value;
      Gc.collect gc
    ]} *)

open Cgc_vm

type t

(** {1 Failure semantics}

    A request that cannot be satisfied outright climbs an escalation
    ladder — collect, trim + retry, grow with capped-backoff expansion
    sizing, optional blacklist relaxation, the registered out-of-memory
    hook — before {!Out_of_memory} is raised.
    Each rung is counted in {!Stats}; the raise carries a diagnosis. *)

type rung =
  | Collect  (** a collection forced on behalf of the request *)
  | Trim  (** trailing free pages returned to the OS, refunding commit quota *)
  | Grow  (** batch heap expansion with capped backoff *)
  | Relax_first_page
      (** large-object blacklist strictness dropped to first-page-only
          (observation 7's escape hatch; requires [Config.relax_blacklist]) *)
  | Relax_black
      (** placement permitted on blacklisted pages outright, counted as
          overrides (requires [Config.relax_blacklist]) *)
  | Oom_hook  (** the registered hook was given a last chance *)

val rung_to_string : rung -> string

type oom_diagnosis = {
  request_bytes : int;
  request_pages : int;
  small : bool;  (** served from a size-classed page *)
  pointer_free : bool;
  pages_reserved : int;
  pages_committed : int;
  pages_free : int;  (** committed [Free] pages at raise time *)
  pages_blacklisted : int;
  rungs : rung list;  (** ladder rungs attempted, in order *)
  blacklist_starved : bool;
      (** room for the request exists when the blacklist is ignored — the
          failure is observation 7's, not a true out-of-pages condition *)
  os_refused : bool;
      (** at least one (injected) commit/map fault was absorbed while
          serving this request *)
  pages_decayed : int;  (** pages quarantined after their memory decayed *)
  memory_decayed : bool;
      (** at least one write fault forced a quarantine-and-retry while
          serving this request: the request died of decayed memory, not
          of a mere shortage *)
}

exception Out_of_memory of oom_diagnosis
(** Raised when the reserved region cannot satisfy a request even after
    the whole escalation ladder ran dry (the simulated OS has no more
    memory to give, or the blacklist starves the request). *)

val pp_oom_diagnosis : Format.formatter -> oom_diagnosis -> unit
val oom_message : oom_diagnosis -> string

val set_oom_hook : t -> (int -> bool) option -> unit
(** Register (or clear) the analog of Boehm's [GC_oom_fn]: called with
    the request size in bytes after every other rung has failed; return
    [true] if memory may have been released (caches dropped, workload
    shrunk) and the ladder should run once more before raising. *)

val oom_hook : t -> (int -> bool) option

val create : ?config:Config.t -> Mem.t -> base:Addr.t -> max_bytes:int -> unit -> t
(** Reserve the heap and, when [config.full_gc_at_startup] is set,
    immediately run the paper's "normally very fast" startup collection
    so pre-existing false references are blacklisted before the first
    allocation.  Register roots {e before} relying on that property, or
    call {!collect} once after registering them. *)

val config : t -> Config.t
val mem : t -> Mem.t

(** {1 Roots} *)

val add_static_root : t -> lo:Addr.t -> hi:Addr.t -> label:string -> unit
val add_dynamic_roots : t -> label:string -> (unit -> Roots.range list) -> unit
val add_register_roots : t -> label:string -> (unit -> int array) -> unit

val exclude_roots : t -> lo:Addr.t -> hi:Addr.t -> label:string -> unit
(** Never scan this sub-range of any registered root ("it is useful ...
    to avoid scanning large static data areas that contain seemingly
    random, nonpointer areas (e.g. IO buffers)"). *)

val clear_roots : t -> unit

(** {1 Allocation} *)

val allocate : ?pointer_free:bool -> ?finalizer:string -> t -> int -> Addr.t
(** [allocate gc bytes] returns the base of a fresh object, zeroed when
    the configuration says so.  [pointer_free] objects are never scanned
    ("it is essential to provide some way to communicate to the
    collector at least the fact that an entire large object contains no
    pointers").  [finalizer] registers a finalization token. *)

val auto_collect : t -> bool
val set_auto_collect : t -> bool -> unit
(** When off, collections happen only on explicit {!collect} calls
    (useful to tests and single-shot experiments). *)

val collect_hook : t -> (unit -> unit) option
val set_collect_hook : t -> (unit -> unit) option -> unit
(** When set, the allocation-budget check and the ladder's Collect rung
    invoke this closure instead of the conservative {!collect}.  Meant
    for wrappers that impose their own liveness discipline (the
    {!Precise} view): the wrapped heap is never marked conservatively
    behind the wrapper's back, yet allocation pressure still triggers
    collection.  The hook must leave the heap coherent even when its
    collection aborts, and should call {!Internal.note_collected} after
    a completed cycle to reset the allocation budget. *)

(** {1 Collection} *)

val collect : t -> unit
(** A full stop-the-world collection: conservative mark from all
    registered roots (updating the blacklist), then sweep. *)

val trim : t -> int
(** Return trailing committed-but-free pages to the simulated OS
    (lowering the committed watermark).  Returns pages released.  The
    memory stays reserved — the blacklist still covers it — but no
    longer counts as committed heap. *)

(** {1 Object access} *)

val get_field : t -> Addr.t -> int -> int
(** [get_field gc base i] reads word [i] of the object at [base].
    @raise Mem.Read_fault when an installed fault plan trips the read
    (counted into [Stats.read_faults] first). *)

val set_field : t -> Addr.t -> int -> int -> unit
(** @raise Mem.Write_fault when an installed fault plan trips the write;
    the store does not happen. *)

val find_object : t -> Addr.t -> Addr.t option
(** Exact (non-configurable) query: base of the allocated object whose
    extent contains the address, if any.  Used by harnesses to decide
    retention; always recognizes interior addresses. *)

val is_allocated : t -> Addr.t -> bool
(** Whether the address is the base of a currently allocated object. *)

val object_size : t -> Addr.t -> int option
(** Size in bytes of the allocated object based at the address. *)

(** {1 Finalization} *)

val add_finalizer : t -> Addr.t -> token:string -> unit
val drain_finalized : t -> (Addr.t * string) list

(** {1 Introspection} *)

val stats : t -> Stats.t
val heap : t -> Heap.t
val blacklist : t -> Blacklist.t
val blacklisted_pages : t -> int
val live_bytes : t -> int
(** From the statistics of the most recent sweep. *)

val pp : Format.formatter -> t -> unit

(** {1 Internals}

    Shared machinery exposed to the sibling baseline collectors
    ({!Precise}) and to white-box tests.  Not part of the stable API. *)
module Internal : sig
  val free_lists : t -> Free_list.t

  val decayed_pages : t -> Bitset.t
  (** Pages quarantined after a decay write fault: excluded from every
      placement path, their slots never refunded by sweeps.  Exposed for
      {!Verify.check_after_fault} and the generational minor sweep. *)

  val finalize : t -> Finalize.t
  val roots : t -> Roots.t
  val marker : t -> Mark.t
  val run_sweep : t -> Sweep.result
  (** Sweep using whatever mark bits are currently set. *)

  val run_mark : t -> unit
  (** Mark phase only (no sweep): leaves mark bits set for inspection. *)

  val note_collected : t -> unit
  (** Reset the allocation budget that drives [maybe_collect], exactly
      as the conservative [collect] does on completion.  For
      {!set_collect_hook} wrappers: call after a {e completed} exact
      cycle (never after an aborted one, so the retry happens at the
      next allocation). *)

  val run_mark_reference : t -> unit
  (** Like {!run_mark} but through {!Mark.Reference} — the
      pre-optimization scan loop.  Used by the differential tests and the
      mark-throughput benchmark. *)

  val run_mark_parallel : t -> jobs:int -> Mark.Parallel.outcome
  (** Like {!run_mark} but through {!Mark.Parallel} with [jobs] marker
      domains (serial for [jobs <= 1] or under an armed access plan,
      with the typed note in the outcome).  The collector itself always
      marks serially; this is the only way to reach the parallel
      tracer.  Used by the jobs differential and the layered
      benchmark's [jobs2_speedup] probe. *)

  val is_marked : t -> Addr.t -> bool
  (** Valid only between [run_mark] and the next sweep. *)
end
