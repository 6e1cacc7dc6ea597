open Cgc_vm

type t = {
  mem : Mem.t;
  config : Config.t;
  sizes : Size_class.t;
  heap : Heap.t;
  blacklist : Blacklist.t;
  free_lists : Free_list.t;
  roots : Roots.t;
  finalize : Finalize.t;
  stats : Stats.t;
  marker : Mark.t;
  decayed_pages : Bitset.t;
      (* pages quarantined after their memory decayed under the
         allocator: every placement path excludes them, and sweeps never
         refund their slots *)
  mutable allocated_since_gc : int;
  mutable auto_collect : bool;
  mutable collect_hook : (unit -> unit) option;
      (* when set, the budget check in [maybe_collect] and the ladder's
         Collect rung invoke this instead of the conservative [collect]:
         a wrapper imposing its own liveness discipline (the precise
         view) substitutes its exact collection without the wrapped
         heap ever being marked conservatively behind its back *)
  mutable oom_hook : (int -> bool) option;
}

(* --- the allocation escalation ladder --- *)

type rung =
  | Collect
  | Trim
  | Grow
  | Relax_first_page
  | Relax_black
  | Oom_hook

let rung_to_string = function
  | Collect -> "collect"
  | Trim -> "trim"
  | Grow -> "grow"
  | Relax_first_page -> "relax-first-page"
  | Relax_black -> "relax-black"
  | Oom_hook -> "oom-hook"

type oom_diagnosis = {
  request_bytes : int;
  request_pages : int;
  small : bool;
  pointer_free : bool;
  pages_reserved : int;
  pages_committed : int;
  pages_free : int;
  pages_blacklisted : int;
  rungs : rung list;
  blacklist_starved : bool;
  os_refused : bool;
  pages_decayed : int;
  memory_decayed : bool;
}

exception Out_of_memory of oom_diagnosis

let pp_oom_diagnosis ppf d =
  Format.fprintf ppf
    "out of memory: %d bytes (%d page%s, %s): %d/%d pages committed, %d free, %d blacklisted; \
     rungs [%s]%s%s"
    d.request_bytes d.request_pages
    (if d.request_pages = 1 then "" else "s")
    (if d.small then if d.pointer_free then "small atomic" else "small" else "large")
    d.pages_committed d.pages_reserved d.pages_free d.pages_blacklisted
    (String.concat "; " (List.map rung_to_string d.rungs))
    (if d.blacklist_starved then "; blacklist-starved" else "")
    (if d.os_refused then "; os-refused" else "");
  if d.memory_decayed || d.pages_decayed > 0 then
    Format.fprintf ppf "; memory-decayed (%d page%s quarantined)" d.pages_decayed
      (if d.pages_decayed = 1 then "" else "s")

let oom_message d = Format.asprintf "%a" pp_oom_diagnosis d

(* Tiers of blacklist strictness the ladder may fall through (only with
   [Config.relax_blacklist]): the configured regime, then first-page-only
   cleanliness for large objects (observation 7's escape hatch), then
   placement on blacklisted pages outright, counted as overrides. *)
type tier =
  | Tier_strict
  | Tier_first_page
  | Tier_any

let create ?(config = Config.default) mem ~base ~max_bytes () =
  Config.validate config;
  let heap = Heap.create mem ~config ~base ~max_bytes in
  let blacklist =
    let representation =
      match config.Config.blacklist_buckets with
      | None -> Blacklist.Exact
      | Some buckets -> Blacklist.Hashed buckets
    in
    Blacklist.create ~representation ~n_pages:(Heap.n_pages heap)
      ~refresh:config.Config.blacklist_refresh ()
  in
  let sizes = Size_class.create config in
  let free_lists = Free_list.create ~n_classes:(Size_class.n_classes sizes) Free_list.Lifo in
  let stats = Stats.create () in
  let marker = Mark.create heap config blacklist stats in
  let t =
    {
      mem;
      config;
      sizes;
      heap;
      blacklist;
      free_lists;
      roots = Roots.create ();
      finalize = Finalize.create ();
      stats;
      marker;
      decayed_pages = Bitset.create (Heap.n_pages heap);
      allocated_since_gc = 0;
      auto_collect = true;
      collect_hook = None;
      oom_hook = None;
    }
  in
  t

let config t = t.config
let mem t = t.mem
let stats t = t.stats
let heap t = t.heap
let blacklist t = t.blacklist
let blacklisted_pages t = Blacklist.count t.blacklist
let live_bytes t = t.stats.Stats.live_bytes
let auto_collect t = t.auto_collect
let set_auto_collect t b = t.auto_collect <- b
let collect_hook t = t.collect_hook
let set_collect_hook t h = t.collect_hook <- h
let set_oom_hook t f = t.oom_hook <- f
let oom_hook t = t.oom_hook

(* --- roots --- *)

let add_static_root t ~lo ~hi ~label = Roots.add t.roots (Roots.Static_range { lo; hi; label })
let add_dynamic_roots t ~label f = Roots.add t.roots (Roots.Dynamic_ranges (label, f))
let add_register_roots t ~label f = Roots.add t.roots (Roots.Register_file (label, f))
let exclude_roots t ~lo ~hi ~label = Roots.exclude t.roots ~lo ~hi ~label
let clear_roots t = Roots.clear t.roots

(* --- collection --- *)

let quarantined t i = Bitset.mem t.decayed_pages i

let collect t =
  let t0 = Stats.now () in
  t.stats.Stats.collections <- t.stats.Stats.collections + 1;
  Mark.run t.marker t.roots ~mem:t.mem;
  let t1 = Stats.now () in
  let (_ : Sweep.result) =
    Sweep.run ~quarantined:(quarantined t) t.heap t.free_lists t.finalize t.stats
  in
  let t2 = Stats.now () in
  t.stats.Stats.mark_seconds <- t.stats.Stats.mark_seconds +. (t1 -. t0);
  t.stats.Stats.sweep_seconds <- t.stats.Stats.sweep_seconds +. (t2 -. t1);
  t.stats.Stats.total_gc_seconds <- t.stats.Stats.total_gc_seconds +. (t2 -. t0);
  t.allocated_since_gc <- 0

let trim t =
  Heap.uncommit_trailing_free t.heap

let startup_collect_if_configured t =
  if t.config.Config.full_gc_at_startup && t.stats.Stats.collections = 0 then collect t

let maybe_collect t =
  match t.collect_hook with
  | Some hook ->
      (* A wrapper owns the liveness discipline: the same allocation
         budget triggers collection, but through the wrapper's exact
         collect.  The hook resets the budget via
         [Internal.note_collected] only when its collection completes,
         so an aborted exact mark retries at the next allocation. *)
      let budget = Heap.committed_bytes t.heap / t.config.Config.space_divisor in
      if t.allocated_since_gc >= budget then hook ()
  | None ->
      if t.auto_collect then begin
        startup_collect_if_configured t;
        let budget = Heap.committed_bytes t.heap / t.config.Config.space_divisor in
        if t.allocated_since_gc >= budget then collect t
      end

(* --- page acquisition --- *)

(* Whether the blacklist permits giving page [i] to this allocation.
   [Tier_any] accepts any page; overrides are counted at placement. *)
let page_ok t ~pointer_free ~small ~tier i =
  if Bitset.mem t.decayed_pages i then false
  else if not t.config.Config.blacklisting then true
  else begin
    t.stats.Stats.blacklist_alloc_checks <- t.stats.Stats.blacklist_alloc_checks + 1;
    match tier with
    | Tier_any -> true
    | Tier_strict | Tier_first_page ->
        if Blacklist.is_black t.blacklist i then begin
          if small && pointer_free && t.config.Config.atomic_on_black_pages then true
          else begin
            t.stats.Stats.blacklist_rejected_pages <- t.stats.Stats.blacklist_rejected_pages + 1;
            false
          end
        end
        else true
  end

(* A relaxation tier placed the request on blacklisted page(s): record
   each override so the trade of space guarantee for availability stays
   observable. *)
let count_overrides t ~lo ~hi =
  for i = lo to hi - 1 do
    if Blacklist.is_black t.blacklist i then Blacklist.note_override t.blacklist
  done

let first_offset_for t page_index =
  match t.config.Config.avoid_trailing_zeros with
  | None -> 0
  | Some k ->
      let addr = Heap.page_addr t.heap page_index in
      if Addr.trailing_zeros addr >= k then t.config.Config.granule else 0

let carve_small_page t index ~granules ~pointer_free =
  let first_offset = first_offset_for t index in
  let object_bytes = Size_class.bytes_of_granules t.sizes granules in
  let n_objects = Size_class.objects_per_page t.sizes ~granules ~first_offset in
  Heap.set_page t.heap index
    (Page.make_small ~granules ~object_bytes ~pointer_free ~first_offset ~n_objects);
  let base = Addr.to_int (Heap.page_addr t.heap index) + first_offset in
  let slots = List.init n_objects (fun i -> base + (i * object_bytes)) in
  Free_list.prepend_block t.free_lists ~granules ~pointer_free slots

(* Lowest uncommitted page acceptable to [ok], committing through it. *)
let commit_fresh_page t ~ok =
  let rec go i =
    if i >= Heap.n_pages t.heap then None
    else
      match Heap.page t.heap i with
      | Page.Uncommitted when ok i ->
          if Heap.commit_through t.heap i then begin
            t.stats.Stats.heap_expansions <- t.stats.Stats.heap_expansions + 1;
            Some i
          end
          else None
      | Page.Uncommitted | Page.Free | Page.Small _ | Page.Large_head _ | Page.Large_tail _ ->
          go (i + 1)
  in
  go (Heap.committed_pages t.heap)

let try_acquire_small_page t ~granules ~pointer_free ~tier ~note_fault =
  let ok = page_ok t ~pointer_free ~small:true ~tier in
  let found =
    match Heap.find_free_page t.heap ~ok with
    | Some i -> Some i
    | None -> (
        match commit_fresh_page t ~ok with
        | index -> index
        | exception Mem.Commit_failed _ ->
            note_fault ();
            None)
  in
  match found with
  | None -> false
  | Some i ->
      if tier = Tier_any then count_overrides t ~lo:i ~hi:(i + 1);
      carve_small_page t i ~granules ~pointer_free;
      true

(* Pages the grow rung asks for first. *)
let expand_pages = 256

(* Ladder rung: grow the committed heap by a batch of pages, halving the
   batch each time the (simulated) OS refuses a commit — capped backoff
   from [expand_pages] down to the least that could serve the
   request.  Partial progress is kept: a fault mid-batch leaves the
   already-committed prefix as [Free] pages. *)
let grow_with_backoff t ~need_pages ~note_fault =
  let limit = Heap.n_pages t.heap in
  let rec attempt want =
    let committed = Heap.committed_pages t.heap in
    let room = limit - committed in
    if room <= 0 then false
    else begin
      let want = min want room in
      t.stats.Stats.ladder_expansions <- t.stats.Stats.ladder_expansions + 1;
      match Heap.commit_through t.heap (committed + want - 1) with
      | (_ : bool) -> true
      | exception Mem.Commit_failed _ ->
          note_fault ();
          let floor_pages = max 1 (min need_pages room) in
          if want <= floor_pages then false
          else begin
            t.stats.Stats.ladder_backoffs <- t.stats.Stats.ladder_backoffs + 1;
            attempt (max floor_pages (want / 2))
          end
    end
  in
  attempt (max need_pages expand_pages)

(* Drive one request up the escalation ladder.  [attempt ~tier ~note_fault]
   makes one complete placement attempt at the given blacklist
   strictness; the ladder runs it first at [Tier_strict], then after
   each rung that changed something: collect, trim + retry, grow with
   capped backoff, blacklist relaxation (opt-in,
   [Config.relax_blacklist]), the registered out-of-memory hook, and
   finally a structured raise carrying the diagnosis. *)
let run_ladder t ~request_bytes ~request_pages ~small ~pointer_free ~attempt =
  let stats = t.stats in
  let rungs = ref [] in
  let faults = ref 0 in
  let note_fault () =
    incr faults;
    stats.Stats.commit_faults <- stats.Stats.commit_faults + 1
  in
  let rung r = rungs := r :: !rungs in
  let relaxable = t.config.Config.relax_blacklist && t.config.Config.blacklisting in
  let steps =
    [
      ( (fun () ->
          (t.auto_collect || Option.is_some t.collect_hook)
          && begin
               rung Collect;
               stats.Stats.ladder_collects <- stats.Stats.ladder_collects + 1;
               (match t.collect_hook with Some f -> f () | None -> collect t);
               true
             end),
        Tier_strict );
      ( (fun () ->
          trim t > 0
          && begin
               rung Trim;
               stats.Stats.ladder_trims <- stats.Stats.ladder_trims + 1;
               true
             end),
        Tier_strict );
      ( (fun () ->
          rung Grow;
          grow_with_backoff t ~need_pages:request_pages ~note_fault),
        Tier_strict );
      ( (fun () ->
          relaxable && (not small)
          && t.config.Config.interior_pointers
          && t.config.Config.large_validity = Config.Anywhere
          && begin
               rung Relax_first_page;
               stats.Stats.ladder_relax_first_page <- stats.Stats.ladder_relax_first_page + 1;
               true
             end),
        Tier_first_page );
      ( (fun () ->
          relaxable
          && begin
               rung Relax_black;
               stats.Stats.ladder_relax_black <- stats.Stats.ladder_relax_black + 1;
               true
             end),
        Tier_any );
    ]
  in
  let try_steps () =
    let rec go = function
      | [] -> None
      | (prep, tier) :: rest -> (
          if not (prep ()) then go rest
          else
            match attempt ~tier ~note_fault with
            | Some a -> Some a
            | None -> go rest)
    in
    match attempt ~tier:Tier_strict ~note_fault with
    | Some a -> Some a
    | None -> go steps
  in
  let outcome =
    match try_steps () with
    | Some a -> Some a
    | None -> (
        match t.oom_hook with
        | Some hook ->
            rung Oom_hook;
            stats.Stats.ladder_oom_hooks <- stats.Stats.ladder_oom_hooks + 1;
            if hook request_bytes then try_steps () else None
        | None -> None)
  in
  match outcome with
  | Some a -> a
  | None ->
      let free = Heap.free_page_count t.heap in
      let room_ignoring_blacklist =
        if small then free > 0 || Heap.committed_pages t.heap < Heap.n_pages t.heap
        else
          Heap.find_free_run t.heap ~n:request_pages
            ~ok:(fun i -> not (Bitset.mem t.decayed_pages i))
          <> None
      in
      stats.Stats.oom_raised <- stats.Stats.oom_raised + 1;
      raise
        (Out_of_memory
           {
             request_bytes;
             request_pages;
             small;
             pointer_free;
             pages_reserved = Heap.n_pages t.heap;
             pages_committed = Heap.committed_pages t.heap;
             pages_free = free;
             pages_blacklisted = Blacklist.count t.blacklist;
             rungs = List.rev !rungs;
             blacklist_starved = t.config.Config.blacklisting && room_ignoring_blacklist;
             os_refused = !faults > 0;
             pages_decayed = Bitset.count t.decayed_pages;
             memory_decayed = false;
           })

(* Zeroing a fresh object is the collector's write into simulated
   memory: one guarded access per object, so a write-fault plan bites
   the allocator here.  @raise Mem.Write_fault when the plan trips. *)
let zero_object t base bytes =
  Mem.guard_write ~bytes t.mem base;
  Segment.zero_range (Heap.segment t.heap) base ~len:bytes

(* Record the allocation in the page's alloc bitmap.  [false] means the
   slot is stale — its page is no longer a small-object page, which can
   happen only when a fault plan decayed/retired the page while the slot
   sat on a free list (formerly an [assert false] sink); the caller
   discards the slot and retries. *)
let set_alloc_bit t base =
  let index = Heap.page_index t.heap base in
  match Heap.page t.heap index with
  | Page.Small s ->
      let rel = Addr.diff base (Heap.page_addr t.heap index) - s.Page.first_offset in
      let obj = rel / s.Page.object_bytes in
      Bitset.add s.Page.alloc obj;
      true
  | Page.Uncommitted | Page.Free | Page.Large_head _ | Page.Large_tail _ -> false

let mark_page_decayed t i =
  if not (Bitset.mem t.decayed_pages i) then begin
    Bitset.add t.decayed_pages i;
    t.stats.Stats.pages_decayed <- t.stats.Stats.pages_decayed + 1
  end

(* Withdraw a freshly allocated object whose memory decayed under the
   allocator: the object is deallocated, its small page's remaining free
   slots are pulled (nothing else may land on rotted memory), a large
   run's pages return to [Free], and the page(s) join [decayed_pages] —
   excluded by every placement path from here on. *)
let quarantine_object t base =
  let index = Heap.page_index t.heap base in
  (match Heap.page t.heap index with
  | Page.Small s ->
      let rel = Addr.diff base (Heap.page_addr t.heap index) - s.Page.first_offset in
      let obj = rel / s.Page.object_bytes in
      Bitset.remove s.Page.alloc obj;
      Bitset.remove s.Page.mark obj;
      Free_list.drop_in_page t.free_lists ~granules:s.Page.granules
        ~pointer_free:s.Page.pointer_free
        ~page_of:(fun a -> Heap.page_index t.heap (Addr.of_int a))
        ~page:index
  | Page.Large_head l ->
      for j = index to index + l.Page.n_pages - 1 do
        Heap.set_page t.heap j Page.Free;
        mark_page_decayed t j
      done
  | Page.Uncommitted | Page.Free | Page.Large_tail _ -> ());
  mark_page_decayed t index

let rec allocate_small t ~granules ~pointer_free =
  let take () = Free_list.take t.free_lists ~granules ~pointer_free in
  let attempt ~tier ~note_fault =
    match take () with
    | Some a -> Some a
    | None ->
        if try_acquire_small_page t ~granules ~pointer_free ~tier ~note_fault then take ()
        else None
  in
  let base =
    run_ladder t
      ~request_bytes:(Size_class.bytes_of_granules t.sizes granules)
      ~request_pages:1 ~small:true ~pointer_free ~attempt
  in
  if set_alloc_bit t base then base
  else begin
    (* stale slot from a page retired under a decaying fault plan; the
       take above already removed it from its free list, so retrying
       makes progress *)
    t.stats.Stats.decay_retries <- t.stats.Stats.decay_retries + 1;
    allocate_small t ~granules ~pointer_free
  end

(* Blacklist acceptability for one page of a large object: when interior
   pointers are recognized everywhere (and the tier is strict), no page
   of the object may be black; otherwise only the first page matters;
   [Tier_any] accepts anything. *)
let large_page_ok t ~tier ~start i =
  if Bitset.mem t.decayed_pages i then false
  else if not t.config.Config.blacklisting then true
  else begin
    t.stats.Stats.blacklist_alloc_checks <- t.stats.Stats.blacklist_alloc_checks + 1;
    match tier with
    | Tier_any -> true
    | Tier_strict | Tier_first_page ->
        let must_be_clean =
          i = start
          || (tier = Tier_strict
             && t.config.Config.interior_pointers
             && t.config.Config.large_validity = Config.Anywhere)
        in
        if must_be_clean && Blacklist.is_black t.blacklist i then begin
          t.stats.Stats.blacklist_rejected_pages <- t.stats.Stats.blacklist_rejected_pages + 1;
          false
        end
        else true
  end

let allocate_large t ~bytes ~pointer_free =
  let page_size = Heap.page_size t.heap in
  let n = (bytes + page_size - 1) / page_size in
  (* find_free_run probes pages left to right, so the "start" of the
     run under consideration is not known to [ok]; conservatively treat
     every page of the run as needing cleanliness when interiors are
     recognized, and retry with a first-page-only constraint otherwise
     by scanning candidate starts explicitly. *)
  let whole_run_clean tier =
    tier = Tier_strict
    && t.config.Config.interior_pointers
    && t.config.Config.large_validity = Config.Anywhere
  in
  let find ~tier =
    if tier = Tier_any || whole_run_clean tier || not t.config.Config.blacklisting then
      Heap.find_free_run t.heap ~n ~ok:(fun i -> large_page_ok t ~tier ~start:i i)
    else begin
      (* only the first page must be clean: try successive starts *)
      let rec go start =
        if start + n > Heap.n_pages t.heap then None
        else begin
          let usable i =
            (not (Bitset.mem t.decayed_pages i))
            &&
            match Heap.page t.heap i with
            | Page.Free | Page.Uncommitted -> true
            | Page.Small _ | Page.Large_head _ | Page.Large_tail _ -> false
          in
          let rec run_ok i = i >= start + n || (usable i && run_ok (i + 1)) in
          if large_page_ok t ~tier ~start start && usable start && run_ok (start + 1) then
            Some start
          else go (start + 1)
        end
      in
      go 0
    end
  in
  let attempt ~tier ~note_fault =
    match find ~tier with
    | None -> None
    | Some start -> (
        let committed_before = Heap.committed_pages t.heap in
        match Heap.commit_through t.heap (start + n - 1) with
        | false -> None
        | true ->
            if Heap.committed_pages t.heap > committed_before then
              t.stats.Stats.heap_expansions <- t.stats.Stats.heap_expansions + 1;
            if tier <> Tier_strict then count_overrides t ~lo:start ~hi:(start + n);
            Heap.set_page t.heap start
              (Page.make_large ~n_pages:n ~object_bytes:bytes ~pointer_free);
            for j = start + 1 to start + n - 1 do
              Heap.set_page t.heap j (Page.Large_tail { head_index = start })
            done;
            Some (Heap.page_addr t.heap start)
        | exception Mem.Commit_failed _ ->
            (* the committed prefix of the run stays [Free]: coherent *)
            note_fault ();
            None)
  in
  run_ladder t ~request_bytes:bytes ~request_pages:n ~small:false ~pointer_free ~attempt

let allocate ?(pointer_free = false) ?finalizer t bytes =
  if bytes <= 0 then invalid_arg "Gc.allocate: non-positive size";
  maybe_collect t;
  let small = Size_class.is_small t.sizes bytes in
  let rounded =
    if small then Size_class.bytes_of_granules t.sizes (Size_class.granules_for t.sizes bytes)
    else bytes
  in
  let alloc_once () =
    if small then allocate_small t ~granules:(Size_class.granules_for t.sizes bytes) ~pointer_free
    else allocate_large t ~bytes ~pointer_free
  in
  (* Every object is cleared, as [GC_malloc]'s are, so reused memory
     cannot leak stale pointers into the scan.  Zeroing is also where a
     write-fault plan bites the allocator.  A transient refusal is retried in place; memory that
     decayed (or keeps refusing) quarantines the object's page(s) and
     sends the request back up the ladder, which now excludes them.  A
     ladder that then runs dry reports a [memory_decayed] diagnosis. *)
  let rec obtain () =
    let base = alloc_once () in
    let rec zero transient_left =
      match zero_object t base rounded with
      | () -> true
      | exception Mem.Write_fault _ ->
          t.stats.Stats.write_faults <- t.stats.Stats.write_faults + 1;
          if Mem.range_decayed t.mem base ~bytes:rounded then false
          else if transient_left > 0 then zero (transient_left - 1)
          else false
    in
    if zero 2 then base
    else begin
      t.stats.Stats.decay_retries <- t.stats.Stats.decay_retries + 1;
      quarantine_object t base;
      match obtain () with
      | b -> b
      | exception Out_of_memory d -> raise (Out_of_memory { d with memory_decayed = true })
    end
  in
  let base = obtain () in
  t.stats.Stats.bytes_allocated <- t.stats.Stats.bytes_allocated + rounded;
  t.stats.Stats.objects_allocated <- t.stats.Stats.objects_allocated + 1;
  t.allocated_since_gc <- t.allocated_since_gc + rounded;
  (match finalizer with
  | Some token -> Finalize.register t.finalize base ~token
  | None -> ());
  base

(* --- object access and exact queries --- *)

(* Field accessors go straight to the heap segment for speed, so they
   consult the fault boundary themselves; a faulted access surfaces to
   the mutator as the typed exception after being counted. *)
let get_field t base i =
  let a = Addr.add base (4 * i) in
  (match Mem.probe_read t.mem a with
  | None -> ()
  | Some reason ->
      t.stats.Stats.read_faults <- t.stats.Stats.read_faults + 1;
      raise (Mem.Read_fault { addr = a; value = Mem.poison_word; reason }));
  Segment.read_word (Heap.segment t.heap) a

let set_field t base i v =
  let a = Addr.add base (4 * i) in
  (match Mem.probe_write t.mem a with
  | None -> ()
  | Some reason ->
      t.stats.Stats.write_faults <- t.stats.Stats.write_faults + 1;
      raise (Mem.Write_fault { addr = a; bytes = 4; reason }));
  Segment.write_word (Heap.segment t.heap) a v

let exact_config = { Config.default with Config.interior_pointers = true; large_validity = Config.Anywhere }

let find_object t addr =
  match Mark.classify t.heap exact_config addr with
  | Mark.Valid { base; page = _ } -> Some base
  | Mark.False_in_heap _ | Mark.Outside -> None

let is_allocated t addr =
  match find_object t addr with
  | Some base -> Addr.equal base addr
  | None -> false

let object_size t addr =
  if not (is_allocated t addr) then None
  else begin
    let index = Heap.page_index t.heap addr in
    match Heap.page t.heap index with
    | Page.Small s -> Some s.Page.object_bytes
    | Page.Large_head l -> Some l.Page.object_bytes
    | Page.Uncommitted | Page.Free | Page.Large_tail _ -> None
  end

(* --- finalization --- *)

let add_finalizer t addr ~token = Finalize.register t.finalize addr ~token
let drain_finalized t = Finalize.drain t.finalize

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@,%a@,%a@]" Heap.pp t.heap Blacklist.pp t.blacklist Stats.pp t.stats

module Internal = struct
  let free_lists t = t.free_lists
  let decayed_pages t = t.decayed_pages
  let finalize t = t.finalize
  let roots t = t.roots
  let marker t = t.marker
  let run_sweep t = Sweep.run ~quarantined:(quarantined t) t.heap t.free_lists t.finalize t.stats
  let run_mark t = Mark.run t.marker t.roots ~mem:t.mem
  let note_collected t = t.allocated_since_gc <- 0
  let run_mark_reference t = Mark.Reference.run t.marker t.roots ~mem:t.mem

  let run_mark_parallel t ~jobs = Mark.Parallel.run t.marker t.roots ~mem:t.mem ~jobs

  let is_marked t addr =
    match find_object t addr with
    | None -> false
    | Some base -> (
        let index = Heap.page_index t.heap base in
        match Heap.page t.heap index with
        | Page.Small s ->
            let rel = Addr.diff base (Heap.page_addr t.heap index) - s.Page.first_offset in
            Bitset.mem s.Page.mark (rel / s.Page.object_bytes)
        | Page.Large_head l -> l.Page.l_marked
        | Page.Uncommitted | Page.Free | Page.Large_tail _ -> false)
end
