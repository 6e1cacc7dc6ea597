(* Static starvation prediction: classify how a recorded program's
   allocation behavior ends, before (or without) asking the collector.

   The predictor mirrors the collector's own failure semantics at page
   granularity:

   - The plain allocation attempt finds a free usable page or commits a
     fresh one; heap growth inside the plain attempt is rung-free, so a
     program that only ever grows is [Safe].
   - When the plain attempt fails, the escalation ladder runs (collect,
     trim, grow, relax, hook).  A collection forced by the
     ladder appears in the trace as an ordinary GC point — but one that
     arrives long before the auto-collect budget (allocated-since-GC >=
     committed/space_divisor) is spent.  That budget-rule mirror is the
     forced-collect signature: rungs fired, yet the program survived —
     [Ladder_rescuable].
   - A page is unusable for a scanned small request when its blacklist
     bucket is set; the predicted blacklist is the bucket image of the
     false references the marker model already collects (the
     [unresolved] raws of the last two snapshots — exactly the
     current+previous aging window the real collector keeps).  When
     final live data plus the next request fit in the reserved heap but
     not in its non-blacklisted part, the program is
     [Blacklist_starved] — unless the configuration relaxes the
     blacklist under pressure, which turns the same shape back into
     [Ladder_rescuable].
   - Under a memory-decay fault plan, every [every]-th guarded write
     quarantines a region's pages; the trace knows its own write count
     (explicit writes plus allocation zeroing), so the decayed-page
     count is predictable.  Fits-without-decay but not with it:
     [Decay_vulnerable].
   - Demand beyond the reserved region with none of the above escapes:
     [Exhausted]. *)

module ISet = Liveness.ISet

type classification =
  | Safe
  | Ladder_rescuable
  | Blacklist_starved
  | Decay_vulnerable
  | Exhausted

let class_name = function
  | Safe -> "safe"
  | Ladder_rescuable -> "ladder-rescuable"
  | Blacklist_starved -> "blacklist-starved"
  | Decay_vulnerable -> "decay-vulnerable"
  | Exhausted -> "exhausted"

type geometry = {
  st_page_size : int;
  st_granule : int;
  st_reserved_pages : int;
  st_initial_pages : int;
  st_space_divisor : int;
  st_max_small_bytes : int;
  st_blacklisting : bool;
  st_relax_blacklist : bool;
  st_atomic_on_black : bool;
  st_auto_collect : bool;
  st_heap_base : int;
  st_blacklist : Cgc.Blacklist.geometry;
}

let capture gc =
  let config = Cgc.Gc.config gc in
  let heap = Cgc.Gc.heap gc in
  {
    st_page_size = config.Cgc.Config.page_size;
    st_granule = config.Cgc.Config.granule;
    st_reserved_pages = Cgc.Heap.n_pages heap;
    st_initial_pages = min config.Cgc.Config.initial_pages (Cgc.Heap.n_pages heap);
    st_space_divisor = config.Cgc.Config.space_divisor;
    st_max_small_bytes = Cgc.Config.max_small_bytes config;
    st_blacklisting = config.Cgc.Config.blacklisting;
    st_relax_blacklist = config.Cgc.Config.relax_blacklist;
    st_atomic_on_black = config.Cgc.Config.atomic_on_black_pages;
    st_auto_collect = Cgc.Gc.auto_collect gc;
    st_heap_base = Cgc_vm.Addr.to_int (Cgc.Heap.base heap);
    st_blacklist = Cgc.Blacklist.geometry (Cgc.Gc.blacklist gc);
  }

type decay_hint = {
  dh_every : int;  (** guarded writes per injected decay fault *)
  dh_region_bytes : int;  (** bytes quarantined around each fault *)
}

type site = {
  site_bytes : int;
  site_pointer_free : bool;
  site_count : int;
  site_class : classification;
}

type prediction = {
  pr_class : classification;
  pr_black_pages : int;  (** predicted blacklist-unusable pages *)
  pr_decayed_pages : int;
  pr_forced_collects : int;  (** GC points bearing the ladder signature *)
  pr_live_pages : int;  (** page-grained footprint of the final live set *)
  pr_usable_pages : int;  (** reserved minus predicted black and decayed *)
  pr_sites : site list;
  pr_note : string;
}

(* Page-grained footprint of a set of objects: small objects pack into
   size-classed pages (slot = granule-rounded size), large objects take
   whole pages. *)
let pages_of_objects g sizes =
  let classes : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let large = ref 0 in
  List.iter
    (fun bytes ->
      if bytes > g.st_max_small_bytes then
        large := !large + ((bytes + g.st_page_size - 1) / g.st_page_size)
      else
        let slot =
          let gr = g.st_granule in
          max gr ((bytes + gr - 1) / gr * gr)
        in
        Hashtbl.replace classes slot (Option.value (Hashtbl.find_opt classes slot) ~default:0 + 1))
    sizes;
  Hashtbl.fold
    (fun slot count acc ->
      let per_page = max 1 (g.st_page_size / slot) in
      acc + ((count + per_page - 1) / per_page))
    classes !large

let pages_for_request g bytes =
  if bytes > g.st_max_small_bytes then (bytes + g.st_page_size - 1) / g.st_page_size else 1

(* Predicted blacklist: bucket image of the false references the
   marker model saw at the last two GC points (the collector's
   current+previous aging window), mapped back to the per-page
   unusable set. *)
let predict_black_map g (r : Apparent.result) =
  let snaps = r.Apparent.snapshots in
  let last_two =
    match List.rev snaps with a :: b :: _ -> [ a; b ] | l -> l
  in
  let heap_bytes = g.st_reserved_pages * g.st_page_size in
  let buckets = ref ISet.empty in
  List.iter
    (fun (s : Apparent.gc_snapshot) ->
      ISet.iter
        (fun raw ->
          if raw >= g.st_heap_base && raw < g.st_heap_base + heap_bytes then
            let page = (raw - g.st_heap_base) / g.st_page_size in
            buckets := ISet.add (Cgc.Blacklist.bucket g.st_blacklist page) !buckets)
        s.Apparent.unresolved)
    last_two;
  let black = Array.make (max 1 g.st_reserved_pages) false in
  if g.st_blacklisting && not (ISet.is_empty !buckets) then
    (* hashed representations smear one dirty bucket over many pages *)
    for page = 0 to g.st_reserved_pages - 1 do
      if ISet.mem (Cgc.Blacklist.bucket g.st_blacklist page) !buckets then black.(page) <- true
    done;
  black

(* The forced-collect signature: a recorded GC point reached with far
   less allocation than the auto-collect budget means the collection
   was not the budget rule's — something (an allocation failure, i.e. a
   ladder rung) forced it.  The committed estimate is the initial
   commitment, a lower bound, so growth-only programs cannot trip the
   signature spuriously. *)
let count_forced_collects g (p : Ir.program) =
  let budget = g.st_initial_pages * g.st_page_size / g.st_space_divisor in
  let threshold = budget / 2 in
  let forced = ref 0 in
  let since = ref 0 in
  let first = ref true in
  Array.iter
    (fun instr ->
      match instr with
      | Ir.Alloc { bytes; _ } -> since := !since + bytes
      | Ir.Gc_point _ ->
          if (not !first) && g.st_auto_collect && !since < threshold then incr forced;
          first := false;
          since := 0
      | _ -> ())
    p.Ir.code;
  !forced

(* Guarded write charges the trace implies: explicit stores (one charge
   each) plus the collector's allocation-time zeroing (one guarded
   charge per object). *)
let count_writes (p : Ir.program) =
  Array.fold_left
    (fun acc instr ->
      match instr with
      | Ir.Alloc _ | Ir.Heap_write _ | Ir.Local_write _ | Ir.Spill_write _ | Ir.Root_write _ ->
          acc + 1
      | Ir.Stack_clear { n_words; _ } -> acc + n_words
      | _ -> acc)
    0 p.Ir.code

let predict ?decay (g : geometry) (p : Ir.program) (r : Apparent.result) =
  let black_map = predict_black_map g r in
  let black = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 black_map in
  let max_clean_run =
    let best = ref 0 and cur = ref 0 in
    Array.iter
      (fun b ->
        if b then cur := 0
        else begin
          incr cur;
          if !cur > !best then best := !cur
        end)
      black_map;
    !best
  in
  let decayed =
    match decay with
    | None -> 0
    | Some d ->
        let trips = count_writes p / max 1 d.dh_every in
        let pages_per_trip =
          max 1 ((d.dh_region_bytes + g.st_page_size - 1) / g.st_page_size)
        in
        min g.st_reserved_pages (trips * pages_per_trip)
  in
  let forced = count_forced_collects g p in
  (* final live footprint: what the last collection kept (apparent =
     what a conservative collector retains), page-grained *)
  let live_sizes =
    match List.rev r.Apparent.snapshots with
    | [] -> []
    | (s : Apparent.gc_snapshot) :: _ ->
        List.filter_map
          (fun id ->
            Option.map
              (fun (o : Apparent.obj_state) -> o.Apparent.o_bytes)
              (Hashtbl.find_opt r.Apparent.objects id))
          (ISet.elements s.Apparent.apparent)
  in
  let live_pages = pages_of_objects g live_sizes in
  (* classify a request kind against the final state *)
  let classify_kind ~bytes ~pointer_free =
    let need = pages_for_request g bytes in
    let black_for_kind =
      if pointer_free && g.st_atomic_on_black && bytes <= g.st_max_small_bytes then 0 else black
    in
    let usable = g.st_reserved_pages - black_for_kind - decayed in
    let fits =
      live_pages + need <= usable
      (* a large request additionally needs a contiguous non-black run
         (the collector places it whole); only checkable cleanly when
         live placement doesn't fragment the heap *)
      && (need <= 1 || black_for_kind = 0 || live_pages > 0 || max_clean_run >= need)
    in
    if fits then if forced > 0 then Ladder_rescuable else Safe
    else if decayed > 0 && live_pages + need <= g.st_reserved_pages - black_for_kind then
      Decay_vulnerable
    else if
      g.st_blacklisting && black_for_kind > 0 && live_pages + need <= g.st_reserved_pages - decayed
    then if g.st_relax_blacklist then Ladder_rescuable else Blacklist_starved
    else Exhausted
  in
  let kinds : (int * bool, int) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (fun instr ->
      match instr with
      | Ir.Alloc { bytes; pointer_free; _ } ->
          let k = (bytes, pointer_free) in
          Hashtbl.replace kinds k (Option.value (Hashtbl.find_opt kinds k) ~default:0 + 1)
      | _ -> ())
    p.Ir.code;
  let sites =
    Hashtbl.fold
      (fun (bytes, pointer_free) count acc ->
        {
          site_bytes = bytes;
          site_pointer_free = pointer_free;
          site_count = count;
          site_class = classify_kind ~bytes ~pointer_free;
        }
        :: acc)
      kinds []
    |> List.sort (fun a b -> compare (b.site_count, b.site_bytes) (a.site_count, a.site_bytes))
  in
  (* the program's fate is the fate of its most endangered request
     kind: a request that dies raises out of the mutator before the
     tracer can record it, so the worst recorded kind is the proxy for
     what the program was asking of the heap when the trace ended *)
  let rank = function
    | Safe -> 0
    | Ladder_rescuable -> 1
    | Blacklist_starved -> 2
    | Decay_vulnerable -> 3
    | Exhausted -> 4
  in
  let pr_class =
    List.fold_left
      (fun acc s -> if rank s.site_class > rank acc then s.site_class else acc)
      Safe sites
  in
  let usable = g.st_reserved_pages - black - decayed in
  let note =
    Printf.sprintf
      "%d live page(s) of %d reserved; %d predicted black, %d predicted decayed, %d forced \
       collect(s)"
      live_pages g.st_reserved_pages black decayed forced
  in
  {
    pr_class;
    pr_black_pages = black;
    pr_decayed_pages = decayed;
    pr_forced_collects = forced;
    pr_live_pages = live_pages;
    pr_usable_pages = usable;
    pr_sites = sites;
    pr_note = note;
  }

(* ------------------------------------------------------------------ *)
(* The measured side: the same classification read off a finished run *)

let ladder_rungs (st : Cgc.Stats.t) =
  st.Cgc.Stats.ladder_collects + st.Cgc.Stats.ladder_trims
  + st.Cgc.Stats.ladder_expansions + st.Cgc.Stats.ladder_relax_first_page
  + st.Cgc.Stats.ladder_relax_black + st.Cgc.Stats.ladder_oom_hooks

let classify_measured ~(oom : Cgc.Gc.oom_diagnosis option) (st : Cgc.Stats.t) =
  match oom with
  | Some d ->
      if d.Cgc.Gc.memory_decayed then Decay_vulnerable
      else if d.Cgc.Gc.blacklist_starved then Blacklist_starved
      else Exhausted
  | None -> if ladder_rungs st > 0 then Ladder_rescuable else Safe

let pp_prediction ppf p =
  Format.fprintf ppf "@[<v2>starvation: predicted %s@,%a" (class_name p.pr_class) Fmt.text
    p.pr_note;
  List.iter
    (fun s ->
      Format.fprintf ppf "@,site: %d x %dB%s -> %s" s.site_count s.site_bytes
        (if s.site_pointer_free then " atomic" else "")
        (class_name s.site_class))
    p.pr_sites;
  Format.fprintf ppf "@]"
