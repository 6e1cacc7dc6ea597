open Cgc_vm

let check_page_table heap issues =
  let n = Heap.n_pages heap in
  let committed = Heap.committed_pages heap in
  let add fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  for i = 0 to n - 1 do
    let p = Heap.page heap i in
    if i >= committed then begin
      match p with
      | Page.Uncommitted -> ()
      | Page.Free | Page.Small _ | Page.Large_head _ | Page.Large_tail _ ->
          add "page %d beyond the committed watermark is not Uncommitted" i
    end
    else begin
      match p with
      | Page.Uncommitted -> add "committed page %d is Uncommitted" i
      | Page.Free -> ()
      | Page.Small s ->
          let page_size = Heap.page_size heap in
          if s.Page.first_offset + (s.Page.n_objects * s.Page.object_bytes) > page_size then
            add "small page %d overflows its page (%d objects of %d bytes at offset %d)" i
              s.Page.n_objects s.Page.object_bytes s.Page.first_offset;
          if s.Page.object_bytes <> s.Page.granules * 4 then
            add "small page %d: object_bytes %d does not match %d granules" i s.Page.object_bytes
              s.Page.granules
      | Page.Large_head l ->
          if l.Page.n_pages < 1 then add "large head %d with n_pages %d" i l.Page.n_pages;
          if i + l.Page.n_pages > n then add "large object at %d exceeds the reserved region" i;
          for j = i + 1 to min (n - 1) (i + l.Page.n_pages - 1) do
            match Heap.page heap j with
            | Page.Large_tail { head_index } when head_index = i -> ()
            | _ -> add "page %d should be a tail of the large object at %d" j i
          done
      | Page.Large_tail { head_index } -> (
          match if head_index >= 0 && head_index < n then Heap.page heap head_index else Page.Free with
          | Page.Large_head l when head_index < i && i < head_index + l.Page.n_pages -> ()
          | _ -> add "tail page %d has a dangling head index %d" i head_index)
    end
  done

(* Audit the flat descriptor table against the page variants.  The scan
   fast path trusts these rows completely, so any drift (a page-state
   transition that bypassed [Heap.set_page]) is a marker correctness bug
   waiting to happen.  Bitsets and large records must be physically the
   objects held by the variant — value equality is not enough, since the
   fast path mutates them through the descriptor. *)
let check_descriptors heap issues =
  let add fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  let d = Heap.desc heap in
  for i = 0 to Heap.n_pages heap - 1 do
    let p = Heap.page heap i in
    let kind = Char.code (Bytes.get d.Heap.d_kind i) in
    if kind <> Page.kind_code p then
      add "descriptor kind %d for page %d disagrees with the page table's %d" kind i
        (Page.kind_code p);
    let pointer_free = Bytes.get d.Heap.d_pointer_free i <> '\000' in
    match p with
    | Page.Uncommitted | Page.Free ->
        if d.Heap.d_head.(i) <> i then add "descriptor head of empty page %d is %d" i d.Heap.d_head.(i);
        if not pointer_free then add "descriptor for empty page %d claims scannable contents" i
    | Page.Small s ->
        if d.Heap.d_object_bytes.(i) <> s.Page.object_bytes then
          add "descriptor object_bytes %d for small page %d (expected %d)" d.Heap.d_object_bytes.(i)
            i s.Page.object_bytes;
        if d.Heap.d_first_offset.(i) <> s.Page.first_offset then
          add "descriptor first_offset %d for small page %d (expected %d)" d.Heap.d_first_offset.(i)
            i s.Page.first_offset;
        if d.Heap.d_n_objects.(i) <> s.Page.n_objects then
          add "descriptor n_objects %d for small page %d (expected %d)" d.Heap.d_n_objects.(i) i
            s.Page.n_objects;
        if d.Heap.d_head.(i) <> i then add "descriptor head of small page %d is %d" i d.Heap.d_head.(i);
        if pointer_free <> s.Page.pointer_free then
          add "descriptor pointer_free flag for small page %d disagrees" i;
        if not (d.Heap.d_alloc.(i) == s.Page.alloc) then
          add "descriptor alloc bitset of small page %d is not the page's" i;
        if not (d.Heap.d_mark.(i) == s.Page.mark) then
          add "descriptor mark bitset of small page %d is not the page's" i;
        (* mark ⊆ alloc: the marker only marks allocated slots, sweeps
           clear both bits, and quarantine removes both — so a mark bit
           on a free (or quarantine-removed) slot means a marker wrote
           where it should not have.  The post-parallel-mark audits
           lean on this. *)
        Bitset.iter
          (fun obj ->
            if not (Bitset.mem s.Page.alloc obj) then
              add "mark bit on unallocated slot %d of small page %d" obj i)
          s.Page.mark
    | Page.Large_head l ->
        if l.Page.l_marked && not l.Page.l_allocated then
          add "mark flag set on the unallocated large object at %d" i;
        if d.Heap.d_object_bytes.(i) <> l.Page.object_bytes then
          add "descriptor object_bytes %d for large head %d (expected %d)" d.Heap.d_object_bytes.(i)
            i l.Page.object_bytes;
        if d.Heap.d_head.(i) <> i then add "descriptor head of large head %d is %d" i d.Heap.d_head.(i);
        if pointer_free <> l.Page.l_pointer_free then
          add "descriptor pointer_free flag for large head %d disagrees" i;
        if not (d.Heap.d_large.(i) == l) then
          add "descriptor large record of head %d is not the page's" i
    | Page.Large_tail { head_index } ->
        if d.Heap.d_head.(i) <> head_index then
          add "descriptor head %d of tail page %d (expected %d)" d.Heap.d_head.(i) i head_index
  done

(* Heap-level subset of [check], for backends that are not a [Gc.t]
   (the explicit allocator shares the page substrate but has its own
   free-list discipline). *)
let check_heap heap =
  let issues = ref [] in
  check_page_table heap issues;
  check_descriptors heap issues;
  List.rev !issues

let check_free_lists gc issues =
  let heap = Gc.heap gc in
  let free_lists = Gc.Internal.free_lists gc in
  let add fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  let seen = Hashtbl.create 256 in
  let n_classes = Heap.page_size heap / 8 in
  List.iter
    (fun pointer_free ->
      for granules = 1 to n_classes do
        let items = Free_list.to_list free_lists ~granules ~pointer_free in
        List.iter
          (fun a ->
            if Hashtbl.mem seen a then add "free slot 0x%08x appears twice" a;
            Hashtbl.replace seen a ();
            if not (Heap.contains heap a) then add "free slot 0x%08x outside the heap" a
            else begin
              let index = Heap.page_index heap a in
              match Heap.page heap index with
              | Page.Small s ->
                  if s.Page.granules <> granules then
                    add "free slot 0x%08x on a page of class %d, listed under %d" a s.Page.granules
                      granules;
                  if s.Page.pointer_free <> pointer_free then
                    add "free slot 0x%08x kind mismatch" a;
                  let rel = a - Cgc_vm.Addr.to_int (Heap.page_addr heap index) - s.Page.first_offset in
                  if rel < 0 || rel mod s.Page.object_bytes <> 0 then
                    add "free slot 0x%08x misaligned in its page" a
                  else if Bitset.mem s.Page.alloc (rel / s.Page.object_bytes) then
                    add "free slot 0x%08x is allocated" a
              | Page.Free | Page.Uncommitted | Page.Large_head _ | Page.Large_tail _ ->
                  add "free slot 0x%08x on a non-small page" a
            end)
          items
      done)
    [ false; true ]

let check_finalizers gc issues =
  let add fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  Finalize.iter_registered
    (fun a token ->
      if not (Gc.is_allocated gc a) then
        add "finalizer %S watches the unallocated address 0x%08x" token (Cgc_vm.Addr.to_int a))
    (Gc.Internal.finalize gc)

let check_live_accounting gc issues =
  let heap = Gc.heap gc in
  let add fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  let recomputed = Heap.live_bytes heap in
  if recomputed < 0 then add "negative live bytes %d" recomputed

let check gc =
  let issues = ref [] in
  check_page_table (Gc.heap gc) issues;
  check_descriptors (Gc.heap gc) issues;
  check_free_lists gc issues;
  check_finalizers gc issues;
  check_live_accounting gc issues;
  List.rev !issues

(* Invariants that must hold even when an injected fault aborted an
   allocation or expansion partway: the committed watermark never covers
   a partially materialized structure.  [check] already rules out
   non-[Uncommitted] pages past the watermark; here we audit the two
   shapes a fault can half-build — a large-object run cut short and a
   size-class page whose slot population went incoherent — plus deferred
   sweep bookkeeping pointing at pages that cannot be swept. *)
let check_after_fault gc =
  let issues = ref (List.rev (check gc)) in
  let heap = Gc.heap gc in
  let add fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  let committed = Heap.committed_pages heap in
  (* per-page free-slot population, from the free lists *)
  let free_slots = Array.make (Heap.n_pages heap) 0 in
  let free_lists = Gc.Internal.free_lists gc in
  let n_classes = Heap.page_size heap / 8 in
  List.iter
    (fun pointer_free ->
      for granules = 1 to n_classes do
        List.iter
          (fun a ->
            if Heap.contains heap a then begin
              let i = Heap.page_index heap a in
              free_slots.(i) <- free_slots.(i) + 1
            end)
          (Free_list.to_list free_lists ~granules ~pointer_free)
      done)
    [ false; true ];
  Heap.iter_committed heap (fun i p ->
      match p with
      | Page.Large_head l ->
          if i + l.Page.n_pages > committed then
            add "large object at %d (%d pages) extends past the committed watermark %d" i
              l.Page.n_pages committed
      | Page.Small s ->
          let allocated = Bitset.count s.Page.alloc in
          if allocated > s.Page.n_objects then
            add "small page %d has %d allocated slots of %d" i allocated s.Page.n_objects;
          if allocated + free_slots.(i) > s.Page.n_objects then
            add "small page %d is over-populated: %d allocated + %d free of %d slots" i allocated
              free_slots.(i) s.Page.n_objects
      | Page.Free | Page.Uncommitted | Page.Large_tail _ ->
          if free_slots.(i) > 0 then
            add "%d free slots recorded on non-small page %d" free_slots.(i) i);
  (* decayed pages are quarantined: sweeps must never refund their
     slots, so the free lists must hold nothing on them *)
  Bitset.iter
    (fun i ->
      if free_slots.(i) > 0 then
        add "%d free slots recorded on quarantined (decayed) page %d" free_slots.(i) i)
    (Gc.Internal.decayed_pages gc);
  List.rev !issues

(* Post-parallel-mark audit of the outcome [o] that
   [Gc.Internal.run_mark_parallel] returned, valid until the next sweep
   or allocation:

   - structural mark sanity — every mark bit covers an allocated slot
     (so no bit landed on a free or quarantine-removed slot; decayed
     small pages may legitimately keep marks on their *surviving*
     objects), and a marked large head is an allocated one.  Free and
     uncommitted pages carry no mark storage at all, which
     [check_descriptors] cross-checks against the descriptor rows;

   - shard accounting — when the tracer really ran parallel, the
     per-domain [objects_marked] shards must sum to the number of mark
     bits actually present in the heap: the exactly-once guarantee of
     the shadow-table CAS protocol, and evidence the serial write-back
     lost nothing. *)
let check_parallel_mark gc o =
  let issues = ref (List.rev (check_heap (Gc.heap gc))) in
  let heap = Gc.heap gc in
  let add fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  let marked = ref 0 in
  Heap.iter_committed heap (fun i p ->
      match p with
      | Page.Small s -> marked := !marked + Bitset.count s.Page.mark
      | Page.Large_head l ->
          if l.Page.l_marked then begin
            if not l.Page.l_allocated then
              add "parallel mark flagged the unallocated large object at %d" i;
            incr marked
          end
      | Page.Free | Page.Uncommitted | Page.Large_tail _ -> ());
  (match o.Mark.Parallel.fallback with
  | Some _ -> () (* serial fallback: no shards to audit *)
  | None ->
      let sum =
        Array.fold_left
          (fun acc s -> acc + s.Stats.objects_marked)
          0 o.Mark.Parallel.shards
      in
      if sum <> !marked then
        add "parallel-mark shards claim %d marked objects, the heap holds %d" sum !marked);
  List.rev !issues

(* --- precise (type-accurate) mark audit --- *)

(* Local mark-state snapshot, so the inclusion check below can run a
   real conservative mark and leave no trace.  (Duplicated from the
   precise collector's internal abort path: the committed-page set
   cannot change while we hold the snapshot because nothing here
   allocates.) *)
let save_mark_state heap =
  let acc = ref [] in
  Heap.iter_committed heap (fun i p ->
      match p with
      | Page.Small s -> acc := (i, `Small (Bitset.copy s.Page.mark)) :: !acc
      | Page.Large_head l -> acc := (i, `Large l.Page.l_marked) :: !acc
      | Page.Uncommitted | Page.Free | Page.Large_tail _ -> ());
  !acc

let restore_mark_state heap snapshot =
  List.iter
    (fun (i, saved) ->
      match (Heap.page heap i, saved) with
      | Page.Small s, `Small bits ->
          Bitset.clear s.Page.mark;
          Bitset.union_into ~dst:s.Page.mark bits
      | Page.Large_head l, `Large m -> l.Page.l_marked <- m
      | _, _ -> ())
    snapshot

let check_precise_mark p =
  let gc = Precise.gc p in
  let heap = Gc.heap gc in
  let issues = ref (List.rev (check_heap heap)) in
  let add fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  (* the layout table may only describe allocated objects (the sweep
     evicts the rest) *)
  Precise.iter_descriptors p (fun base _desc ->
      if not (Gc.is_allocated gc base) then
        add "layout table retains a descriptor for the swept object at 0x%x" (Addr.to_int base));
  (* The rest of the audit reads the heap through the guarded accessors
     and runs a shadow conservative mark; lift any armed fault plan so
     the audit observes the heap instead of perturbing the experiment.
     With no plan armed nothing can fault (decayed regions just read
     back poison, which names no object). *)
  let mem = Gc.mem gc in
  let plan = Mem.fault_plan mem in
  Mem.set_fault_plan mem None;
  Fun.protect
    ~finally:(fun () -> Mem.set_fault_plan mem plan)
    (fun () ->
      (* the exact-reachable set: closure of the providers' roots
         through the registered pointer maps *)
      let word = (Gc.config gc).Config.granule in
      let reachable = Hashtbl.create 256 in
      let stack = ref [] in
      let visit a =
        if Addr.to_int a <> 0 && Gc.is_allocated gc a && not (Hashtbl.mem reachable a) then begin
          Hashtbl.replace reachable a ();
          stack := a :: !stack
        end
      in
      List.iter
        (fun a ->
          if Addr.to_int a <> 0 && not (Gc.is_allocated gc a) then
            add "root provider names the freed or decayed address 0x%x" (Addr.to_int a)
          else visit a)
        (Precise.roots_now p);
      let continue = ref true in
      while !continue do
        match !stack with
        | [] -> continue := false
        | base :: rest ->
            stack := rest;
            (match Precise.descriptor p base with
            | None -> () (* unknown layout: atomic *)
            | Some desc ->
                Array.iter
                  (fun off -> visit (Addr.of_int (Gc.get_field gc base (off / word))))
                  desc.Type_desc.pointer_offsets)
      done;
      (* inclusion: everything exactly reachable must be covered by a
         conservative mark of the same heap — the precise roots are
         registered as a conservative register file, so precise marks ⊆
         conservative marks by construction, and a violation means the
         disciplines disagree about the heap itself.  The shadow mark is
         fully unwound: mark bits, blacklist cycle and statistics are
         restored before returning. *)
      if Hashtbl.length reachable > 0 then begin
        let marks = save_mark_state heap in
        let stats_snapshot = Stats.copy (Gc.stats gc) in
        let blacklist_snapshot = Blacklist.save_cycle (Gc.blacklist gc) in
        Fun.protect
          ~finally:(fun () ->
            restore_mark_state heap marks;
            Blacklist.restore_cycle (Gc.blacklist gc) blacklist_snapshot;
            Stats.blit stats_snapshot ~into:(Gc.stats gc))
          (fun () ->
            Gc.Internal.run_mark gc;
            Hashtbl.iter
              (fun base () ->
                if not (Gc.Internal.is_marked gc base) then
                  add "exactly-reachable object 0x%x escapes the conservative mark"
                    (Addr.to_int base))
              reachable)
      end);
  List.rev !issues

let check_after_collect gc =
  let issues = ref (List.rev (check gc)) in
  let heap = Gc.heap gc in
  let add fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  Heap.iter_committed heap (fun i p ->
      match p with
      | Page.Small s ->
          if not (Bitset.is_empty s.Page.mark) then add "mark bits left set on page %d after sweep" i
      | Page.Large_head _ | Page.Free | Page.Uncommitted | Page.Large_tail _ -> ());
  let stats = Gc.stats gc in
  let recomputed = Heap.live_bytes heap in
  if stats.Stats.live_bytes <> recomputed then
    add "stats live_bytes %d disagrees with the heap's %d" stats.Stats.live_bytes recomputed;
  List.rev !issues
