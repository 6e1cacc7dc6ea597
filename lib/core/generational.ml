open Cgc_vm

type stats = {
  minor_collections : int;
  major_collections : int;
  promoted_pages : int;
  promoted_bytes : int;
  dirty_pages_scanned : int;
}

type t = {
  gc : Gc.t;
  promote_after : int;
  age : int array; (* per page: consecutive minor survivals; -1 = promoted (old) *)
  dirty : Bitset.t; (* old pages the next minor collection must rescan *)
  carry : Bitset.t;
      (* the subset of [dirty] kept across the last rescan because the
         page still referenced young data (the mutator owes no second
         barrier for a store it already made once) *)
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable promoted_pages : int;
  mutable promoted_bytes : int;
  mutable dirty_pages_scanned : int;
}

let create ?(promote_after = 2) gc =
  if promote_after < 1 then invalid_arg "Generational.create: promote_after must be >= 1";
  let n = Heap.n_pages (Gc.heap gc) in
  {
    gc;
    promote_after;
    age = Array.make n 0;
    dirty = Bitset.create n;
    carry = Bitset.create n;
    minor_collections = 0;
    major_collections = 0;
    promoted_pages = 0;
    promoted_bytes = 0;
    dirty_pages_scanned = 0;
  }

let gc t = t.gc
let heap t = Gc.heap t.gc
let page_is_old t index = t.age.(index) < 0

let is_old t addr =
  match Gc.find_object t.gc addr with
  | Some base -> page_is_old t (Heap.page_index (heap t) base)
  | None -> false

let dirty_pages t = List.rev (Bitset.fold (fun acc i -> i :: acc) [] t.dirty)
let carried_pages t = List.rev (Bitset.fold (fun acc i -> i :: acc) [] t.carry)

let reset_stats t =
  t.minor_collections <- 0;
  t.major_collections <- 0;
  t.promoted_pages <- 0;
  t.promoted_bytes <- 0;
  t.dirty_pages_scanned <- 0

let get_field t base i = Gc.get_field t.gc base i

(* The write barrier: a pointer store into an old page means the next
   minor collection must rescan that page.  The dirty bit is set only
   after the store succeeds — a faulted (raising) write must not leave
   the old page spuriously dirty. *)
let set_field t base i v =
  Gc.set_field t.gc base i v;
  let index = Heap.page_index (heap t) base in
  if page_is_old t index then Bitset.add t.dirty index

(* --- minor collection --- *)

(* Young-only conservative marking: old objects are treated as live and
   opaque; their outgoing pointers are covered by the dirty-page scan. *)
let minor_mark t =
  let heap = heap t in
  let config = Gc.config t.gc in
  let roots = Gc.Internal.roots t.gc in
  let blacklist = Gc.blacklist t.gc in
  (* clear marks on young pages only *)
  Heap.iter_committed heap (fun i p ->
      if not (page_is_old t i) then
        match p with
        | Page.Small s -> Bitset.clear s.Page.mark
        | Page.Large_head l -> l.Page.l_marked <- false
        | Page.Uncommitted | Page.Free | Page.Large_tail _ -> ());
  let stack = ref [] in
  (* [noting] is on only while a dirty old page's own words are being
     scanned: any young target seen there means the page still holds a
     cross-generation edge and its dirty bit must survive this rescan
     (clearing it would strand the young object at the next minor — the
     store happened once, the mutator owes no second barrier). *)
  let noting = ref false in
  let young_ref = ref false in
  let consider value =
    match Mark.classify heap config value with
    | Mark.Valid { base; page } ->
        if not (page_is_old t page) then begin
          if !noting then young_ref := true;
          if Heap.mark_object heap base then stack := base :: !stack
        end
    | Mark.False_in_heap { page } ->
        if config.Config.blacklisting then Blacklist.note blacklist page
    | Mark.Outside -> ()
  in
  let mem = Gc.mem t.gc in
  let stats = Gc.stats t.gc in
  (* A read fault while scanning downgrades the word to "not a pointer",
     exactly like the full marker: counted, skipped, never retained. *)
  let consider_guarded addr value =
    match Mem.probe_read mem addr with
    | None -> consider value
    | Some _reason ->
        stats.Stats.read_faults <- stats.Stats.read_faults + 1;
        stats.Stats.mark_downgrades <- stats.Stats.mark_downgrades + 1
  in
  let iter_words seg ~lo ~hi =
    if Mem.read_faults_armed mem then
      Segment.iter_words seg ~alignment:config.Config.alignment ~lo ~hi consider_guarded
    else
      Segment.iter_words seg ~alignment:config.Config.alignment ~lo ~hi (fun _ value ->
          consider value)
  in
  let scan_words lo hi = iter_words (Heap.segment heap) ~lo ~hi in
  let rec drain () =
    match !stack with
    | [] -> ()
    | base :: rest ->
        stack := rest;
        let size, pointer_free = Heap.object_span heap base in
        if not pointer_free then scan_words base (Addr.add base size);
        drain ()
  in
  (* usual conservative roots *)
  List.iter
    (fun (_, values) -> Array.iter consider values)
    (Roots.current_registers roots);
  drain ();
  List.iter
    (fun { Roots.lo; hi; label = _ } ->
      (match Mem.find mem lo with
      | None -> ()
      | Some seg -> iter_words seg ~lo ~hi);
      drain ())
    (Roots.current_ranges roots);
  (* dirty old pages: rescan their live objects, and keep the dirty bit
     of any page that still points into the young generation *)
  let keep = ref [] in
  Bitset.iter
    (fun index ->
      t.dirty_pages_scanned <- t.dirty_pages_scanned + 1;
      young_ref := false;
      noting := true;
      (match Heap.page heap index with
      | Page.Small s ->
          let base = Addr.add (Heap.page_addr heap index) s.Page.first_offset in
          for obj = 0 to s.Page.n_objects - 1 do
            if Bitset.mem s.Page.alloc obj && not s.Page.pointer_free then begin
              let lo = Addr.add base (obj * s.Page.object_bytes) in
              scan_words lo (Addr.add lo s.Page.object_bytes)
            end
          done
      | Page.Large_head l ->
          if l.Page.l_allocated && not l.Page.l_pointer_free then begin
            let lo = Heap.page_addr heap index in
            scan_words lo (Addr.add lo l.Page.object_bytes)
          end
      | Page.Uncommitted | Page.Free | Page.Large_tail _ -> ());
      noting := false;
      if !young_ref then keep := index :: !keep;
      drain ())
    t.dirty;
  Bitset.clear t.dirty;
  Bitset.clear t.carry;
  List.iter
    (fun index ->
      Bitset.add t.dirty index;
      Bitset.add t.carry index)
    !keep

(* Promotion bookkeeping after a sweep: empty pages rejuvenate, occupied
   young pages age, old-enough pages are promoted (and their free slots
   withdrawn so fresh allocation stays young).  [promoted_bytes] charges
   live bytes at the moment of promotion for both page shapes. *)
let update_ages_after_sweep t =
  let heap = heap t in
  let free_lists = Gc.Internal.free_lists t.gc in
  Heap.iter_committed heap (fun i p ->
      match p with
      | Page.Free | Page.Uncommitted ->
          t.age.(i) <- 0;
          Bitset.remove t.dirty i;
          Bitset.remove t.carry i
      | Page.Large_tail _ -> ()
      | Page.Small s ->
          if not (page_is_old t i) then begin
            t.age.(i) <- t.age.(i) + 1;
            if t.age.(i) >= t.promote_after then begin
              t.age.(i) <- -1;
              t.promoted_pages <- t.promoted_pages + 1;
              t.promoted_bytes <- t.promoted_bytes + (Bitset.count s.Page.alloc * s.Page.object_bytes);
              (* A freshly promoted page enters the old generation dirty
                 (and carried): every store into it happened while the
                 page was young, when no barrier was owed, so any
                 outgoing young reference it holds is uncovered until
                 the first post-promotion rescan clears or re-carries
                 the bit. *)
              if not s.Page.pointer_free then begin
                Bitset.add t.dirty i;
                Bitset.add t.carry i
              end;
              Free_list.drop_in_page free_lists ~granules:s.Page.granules
                ~pointer_free:s.Page.pointer_free
                ~page_of:(fun a -> Heap.page_index heap (Addr.of_int a))
                ~page:i
            end
          end
      | Page.Large_head l ->
          if not (page_is_old t i) then begin
            t.age.(i) <- t.age.(i) + 1;
            if t.age.(i) >= t.promote_after then begin
              for j = i to i + l.Page.n_pages - 1 do
                t.age.(j) <- -1
              done;
              t.promoted_pages <- t.promoted_pages + l.Page.n_pages;
              if l.Page.l_allocated then begin
                t.promoted_bytes <- t.promoted_bytes + l.Page.object_bytes;
                (* Same uncovered-store hazard as the small case: the
                   head page carries the bit, and the rescan walks the
                   whole object from there. *)
                if not l.Page.l_pointer_free then begin
                  Bitset.add t.dirty i;
                  Bitset.add t.carry i
                end
              end
            end
          end)

let minor t =
  t.minor_collections <- t.minor_collections + 1;
  minor_mark t;
  let heap = heap t in
  let policy i _ = if page_is_old t i then `Keep_live else `Sweep in
  let decayed = Gc.Internal.decayed_pages t.gc in
  let (_ : Sweep.result) =
    Sweep.run ~policy
      ~quarantined:(fun i -> Bitset.mem decayed i)
      heap (Gc.Internal.free_lists t.gc) (Gc.Internal.finalize t.gc) (Gc.stats t.gc)
  in
  update_ages_after_sweep t

let major t =
  t.major_collections <- t.major_collections + 1;
  Gc.collect t.gc;
  (* The full collect traced every root and swept every page, so no
     page owes a barrier rescan: the whole dirty set (carryovers
     included) is cleared.  Clearing it is sound only because the
     generation clock resets with it — every surviving page returns to
     the young generation and re-earns tenure, so no old page is left
     whose young references would now be uncovered. *)
  Bitset.clear t.dirty;
  Bitset.clear t.carry;
  Array.fill t.age 0 (Array.length t.age) 0

let allocate ?pointer_free ?finalizer t bytes =
  match Gc.allocate ?pointer_free ?finalizer t.gc bytes with
  | a -> a
  | exception Gc.Out_of_memory first -> (
      major t;
      match Gc.allocate ?pointer_free ?finalizer t.gc bytes with
      | a -> a
      | exception Gc.Out_of_memory second ->
          (* Both attempts stay attributable: the rungs climbed before
             the rescuing major precede the retry's own, and a cause
             seen by either attempt survives into the merged diagnosis. *)
          raise
            (Gc.Out_of_memory
               {
                 second with
                 Gc.rungs = first.Gc.rungs @ second.Gc.rungs;
                 blacklist_starved = first.Gc.blacklist_starved || second.Gc.blacklist_starved;
                 os_refused = first.Gc.os_refused || second.Gc.os_refused;
                 memory_decayed = first.Gc.memory_decayed || second.Gc.memory_decayed;
                 pages_decayed = max first.Gc.pages_decayed second.Gc.pages_decayed;
               }))

let stats t =
  {
    minor_collections = t.minor_collections;
    major_collections = t.major_collections;
    promoted_pages = t.promoted_pages;
    promoted_bytes = t.promoted_bytes;
    dirty_pages_scanned = t.dirty_pages_scanned;
  }

let pp_stats ppf (s : stats) =
  Format.fprintf ppf "%d minor / %d major collections; %d pages (%d bytes) promoted; %d dirty rescans"
    s.minor_collections s.major_collections s.promoted_pages s.promoted_bytes
    s.dirty_pages_scanned
