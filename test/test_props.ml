(* Property-based tests (qcheck) for core data structures and the
   collector's fundamental invariants. *)

open Cgc_vm
module Gc = Cgc.Gc
module Config = Cgc.Config
module Heap = Cgc.Heap
module Blacklist = Cgc.Blacklist
module Explicit = Cgc.Explicit
module Free_list = Cgc.Free_list
module Size_class = Cgc.Size_class

let count = 200

(* --- bitset vs a reference model --- *)

type bitset_op =
  | Add of int
  | Remove of int

let bitset_ops_gen n =
  QCheck.Gen.(
    list_size (int_bound 100)
      (map2 (fun b i -> if b then Add (i mod n) else Remove (i mod n)) bool (int_bound (n - 1))))

let prop_bitset_model =
  let n = 150 in
  QCheck.Test.make ~count ~name:"bitset agrees with a set model"
    (QCheck.make (bitset_ops_gen n))
    (fun ops ->
      let bs = Bitset.create n in
      let model = Hashtbl.create 16 in
      List.iter
        (fun op ->
          match op with
          | Add i ->
              Bitset.add bs i;
              Hashtbl.replace model i ()
          | Remove i ->
              Bitset.remove bs i;
              Hashtbl.remove model i)
        ops;
      let ok = ref (Bitset.count bs = Hashtbl.length model) in
      for i = 0 to n - 1 do
        if Bitset.mem bs i <> Hashtbl.mem model i then ok := false
      done;
      (* iteration visits exactly the members, ascending *)
      let visited = List.rev (Bitset.fold (fun acc i -> i :: acc) [] bs) in
      !ok
      && List.sort compare visited = visited
      && List.for_all (Hashtbl.mem model) visited
      && List.length visited = Hashtbl.length model)

(* --- address arithmetic --- *)

let prop_addr_align =
  QCheck.Test.make ~count ~name:"align_down/align_up bracket the address"
    QCheck.(pair (int_bound 0x7FFFFFF) (int_bound 4))
    (fun (a, k) ->
      let n = 1 lsl (k + 2) in
      let a = Addr.of_int a in
      let down = Addr.align_down a n and up = Addr.align_up a n in
      Addr.is_aligned down n && Addr.is_aligned up n
      && Addr.to_int down <= Addr.to_int a
      && Addr.to_int a <= Addr.to_int up
      && Addr.to_int up - Addr.to_int down < 2 * n)

let prop_addr_trailing_zeros =
  QCheck.Test.make ~count ~name:"trailing_zeros matches the definition"
    QCheck.(int_bound 0xFFFFFFF)
    (fun a ->
      let a = a + 1 in
      let tz = Addr.trailing_zeros (Addr.of_int a) in
      a mod (1 lsl tz) = 0 && a mod (1 lsl (tz + 1)) <> 0)

(* --- segment word access --- *)

let prop_segment_roundtrip =
  QCheck.Test.make ~count ~name:"word write/read round-trips at any offset and endianness"
    QCheck.(triple (int_bound 250) (int_bound 0xFFFFFFF) bool)
    (fun (off, v, big) ->
      let endian = if big then Endian.Big else Endian.Little in
      let seg =
        Segment.create ~name:"p" ~kind:(Segment.Other "prop") ~endian ~base:(Addr.of_int 0x1000)
          ~size:256
      in
      let a = Addr.of_int (0x1000 + min off 252) in
      Segment.write_word seg a v;
      Segment.read_word seg a = v land 0xFFFFFFFF)

let prop_segment_endian_assembly =
  QCheck.Test.make ~count ~name:"word equals bytes assembled per endianness"
    QCheck.(pair (int_bound 0xFFFFFFF) bool)
    (fun (v, big) ->
      let endian = if big then Endian.Big else Endian.Little in
      let seg =
        Segment.create ~name:"p" ~kind:(Segment.Other "prop") ~endian ~base:Addr.zero ~size:8
      in
      Segment.write_word seg Addr.zero v;
      let b i = Segment.read_u8 seg (Addr.of_int i) in
      let assembled =
        if big then (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3
        else (b 3 lsl 24) lor (b 2 lsl 16) lor (b 1 lsl 8) lor b 0
      in
      assembled = v land 0xFFFFFFFF)

(* --- rng --- *)

let prop_rng_bound =
  QCheck.Test.make ~count ~name:"Rng.int stays in bounds"
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

(* --- size classes --- *)

let prop_size_class_rounding =
  QCheck.Test.make ~count ~name:"granule rounding covers the request exactly"
    QCheck.(int_range 1 2048)
    (fun bytes ->
      let sc = Size_class.create Config.default in
      let g = Size_class.granules_for sc bytes in
      let rounded = Size_class.bytes_of_granules sc g in
      rounded >= bytes && rounded - bytes < Size_class.granule sc)

(* --- displacement bitmasks --- *)

(* The scan fast path answers "is this displacement a registered
   interior-pointer offset?" from a bitmask; it must agree with the
   config's list-based definition everywhere, including unaligned and
   out-of-range probes. *)
let prop_displacement_mask =
  QCheck.Test.make ~count ~name:"displacement bitmask agrees with the displacement list"
    QCheck.(pair (small_list (int_bound 120)) (small_list (int_bound 600)))
    (fun (raw, probes) ->
      let disps = List.sort_uniq compare (List.map (fun d -> 4 * d) raw) in
      let config = { Config.default with Config.valid_displacements = disps } in
      let mask = Config.displacement_mask config in
      let sc = Size_class.create config in
      let expect d = d = 0 || List.mem d disps in
      let agree d =
        Config.displacement_in_mask mask ~granule:4 d = expect d
        && Size_class.displacement_ok sc d = expect d
      in
      List.for_all agree (0 :: disps)
      && List.for_all (fun p -> agree p && agree (p + 1) && agree (p + 2) && agree (4 * p)) probes)

(* --- free lists --- *)

let prop_free_list_address_ordered =
  QCheck.Test.make ~count ~name:"address-ordered free list pops in ascending order"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (int_bound 100_000))
    (fun addrs ->
      let fl = Free_list.create ~n_classes:4 Free_list.Address_ordered in
      List.iter (fun a -> Free_list.add fl ~granules:2 ~pointer_free:false (4 * a)) addrs;
      let rec drain acc =
        match Free_list.take fl ~granules:2 ~pointer_free:false with
        | None -> List.rev acc
        | Some a -> drain (a :: acc)
      in
      let popped = drain [] in
      List.length popped = List.length addrs && List.sort compare popped = popped)

(* --- the collector's fundamental invariants --- *)

(* A random object graph: [n] objects of 2-4 words; random pointer
   fields; a random subset of objects named by root slots.  After a
   collection, an object must be allocated iff the model says it is
   reachable. *)
type graph = {
  g_sizes : int array;  (** words per object *)
  g_edges : (int * int * int) list;  (** (src object, field, dst object) *)
  g_roots : int list;  (** object indexes held by root slots *)
}

let graph_gen =
  QCheck.Gen.(
    int_range 2 40 >>= fun n ->
    (* mostly small objects; occasionally a multi-page large one (the
       first four fields of large objects are still scanned pointers) *)
    array_size (return n) (frequency [ (9, int_range 2 4); (1, return 1500) ]) >>= fun sizes ->
    list_size (int_bound (2 * n)) (triple (int_bound (n - 1)) (int_bound 3) (int_bound (n - 1)))
    >>= fun raw_edges ->
    list_size (int_bound (max 1 (n / 3))) (int_bound (n - 1)) >>= fun roots ->
    let edges =
      List.filter_map
        (fun (s, f, d) -> if f < sizes.(s) then Some (s, f, d) else None)
        raw_edges
    in
    return { g_sizes = sizes; g_edges = edges; g_roots = roots })

(* Field writes are applied in order, so only the last write to a given
   (object, field) pair is an edge of the final graph. *)
let final_edges g =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (s, f, d) -> Hashtbl.replace tbl (s, f) d) g.g_edges;
  Hashtbl.fold (fun (s, _) d acc -> (s, d) :: acc) tbl []

let reachable g =
  let n = Array.length g.g_sizes in
  let edges = final_edges g in
  let seen = Array.make n false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter (fun (s, d) -> if s = i then visit d) edges
    end
  in
  List.iter visit g.g_roots;
  seen

let build_graph_env g =
  let mem = Mem.create () in
  let data =
    Mem.map mem ~name:"roots" ~kind:Segment.Static_data ~base:(Addr.of_int 0x10000) ~size:0x1000
  in
  let gc = Gc.create mem ~base:(Addr.of_int 0x400000) ~max_bytes:(4 * 1024 * 1024) () in
  Gc.set_auto_collect gc false;
  Gc.add_static_root gc ~lo:(Segment.base data) ~hi:(Segment.limit data) ~label:"roots";
  let objs = Array.map (fun words -> Gc.allocate gc (4 * words)) g.g_sizes in
  List.iter (fun (s, f, d) -> Gc.set_field gc objs.(s) f (Addr.to_int objs.(d))) g.g_edges;
  List.iteri (fun i r -> Segment.write_word data (Addr.add (Segment.base data) (4 * i)) (Addr.to_int objs.(r))) g.g_roots;
  (gc, objs)

let prop_gc_reachability_exact =
  QCheck.Test.make ~count ~name:"collection keeps exactly the reachable objects"
    (QCheck.make graph_gen) (fun g ->
      let gc, objs = build_graph_env g in
      Gc.collect gc;
      let expect = reachable g in
      let ok = ref true in
      Array.iteri
        (fun i o -> if Gc.is_allocated gc o <> expect.(i) then ok := false)
        objs;
      !ok)

let prop_gc_idempotent =
  QCheck.Test.make ~count:100 ~name:"a second collection frees nothing more"
    (QCheck.make graph_gen) (fun g ->
      let gc, objs = build_graph_env g in
      Gc.collect gc;
      let snapshot = Array.map (Gc.is_allocated gc) objs in
      Gc.collect gc;
      let again = Array.map (Gc.is_allocated gc) objs in
      snapshot = again)

let prop_gc_conservation =
  QCheck.Test.make ~count:100 ~name:"allocated = live + freed (object counts)"
    (QCheck.make graph_gen) (fun g ->
      let gc, _ = build_graph_env g in
      Gc.collect gc;
      let s = Gc.stats gc in
      s.Cgc.Stats.objects_allocated = s.Cgc.Stats.live_objects + s.Cgc.Stats.objects_freed)

(* Figure 2's guarantee: a page named by a standing false reference is
   never handed to a pointer-bearing allocation. *)
let prop_blacklist_invariant =
  QCheck.Test.make ~count:60 ~name:"no pointer-bearing object lands on a blacklisted page"
    QCheck.(pair (int_range 1 60) (int_range 1 400))
    (fun (page, allocs) ->
      let mem = Mem.create () in
      let data =
        Mem.map mem ~name:"roots" ~kind:Segment.Static_data ~base:(Addr.of_int 0x10000) ~size:0x100
      in
      let config = { Config.default with Config.initial_pages = 4 } in
      let gc = Gc.create ~config mem ~base:(Addr.of_int 0x400000) ~max_bytes:(1024 * 1024) () in
      Gc.add_static_root gc ~lo:(Segment.base data) ~hi:(Segment.limit data) ~label:"roots";
      let heap = Gc.heap gc in
      let page = page mod Heap.n_pages heap in
      Segment.write_word data (Segment.base data)
        (Addr.to_int (Addr.add (Heap.page_addr heap page) 4));
      let ok = ref true in
      for _ = 1 to allocs do
        (* the startup collection (before the first allocation) must
           already have blacklisted the page *)
        let a = Gc.allocate gc 8 in
        if Heap.page_index heap a = page then ok := false
      done;
      !ok && Blacklist.is_black (Gc.blacklist gc) page)

(* --- explicit allocator vs model --- *)

type malloc_op =
  | Malloc of int
  | Free of int  (** index into previously returned, still-live objects *)

let malloc_ops_gen =
  QCheck.Gen.(
    list_size (int_bound 120)
      (map2
         (fun b k -> if b then Malloc (8 + (8 * (k mod 8))) else Free k)
         bool (int_bound 1000)))

let prop_explicit_model =
  QCheck.Test.make ~count ~name:"explicit allocator agrees with a live-set model"
    (QCheck.make malloc_ops_gen) (fun ops ->
      let mem = Mem.create () in
      let e = Explicit.create mem ~base:(Addr.of_int 0x400000) ~max_bytes:(1024 * 1024) () in
      let live = ref [] in
      let live_bytes = ref 0 in
      List.iter
        (fun op ->
          match op with
          | Malloc bytes ->
              let a = Explicit.malloc e bytes in
              live := (a, bytes) :: !live;
              live_bytes := !live_bytes + bytes
          | Free k -> (
              match !live with
              | [] -> ()
              | l ->
                  let idx = k mod List.length l in
                  let a, bytes = List.nth l idx in
                  Explicit.free e a;
                  live := List.filteri (fun i _ -> i <> idx) l;
                  live_bytes := !live_bytes - bytes))
        ops;
      Explicit.live_bytes e = !live_bytes
      && Explicit.live_objects e = List.length !live
      && List.for_all (fun (a, _) -> Explicit.is_allocated e a) !live)

(* Addresses handed out by the allocator never overlap. *)
let prop_gc_no_overlap =
  QCheck.Test.make ~count:100 ~name:"allocated objects never overlap"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) (int_range 1 300)))
    (fun sizes ->
      let mem = Mem.create () in
      let gc = Gc.create mem ~base:(Addr.of_int 0x400000) ~max_bytes:(4 * 1024 * 1024) () in
      Gc.set_auto_collect gc false;
      let objs = List.map (fun s -> (Gc.allocate gc s, s)) sizes in
      let ranges =
        List.map
          (fun (a, s) ->
            let size = Option.value (Gc.object_size gc a) ~default:s in
            (Addr.to_int a, Addr.to_int a + size))
          objs
      in
      let sorted = List.sort compare ranges in
      let rec no_overlap = function
        | (_, hi) :: ((lo, _) :: _ as rest) -> hi <= lo && no_overlap rest
        | [ _ ] | [] -> true
      in
      no_overlap sorted)

(* The Verify checker finds nothing after arbitrary build-and-collect
   sequences. *)
let prop_verify_clean =
  QCheck.Test.make ~count:100 ~name:"internal invariants hold after collection"
    (QCheck.make graph_gen) (fun g ->
      let gc, _ = build_graph_env g in
      let before = Cgc.Verify.check gc in
      Gc.collect gc;
      let after = Cgc.Verify.check_after_collect gc in
      before = [] && after = [])

let prop_verify_clean_under_auto_collect =
  QCheck.Test.make ~count:40 ~name:"invariants hold under automatic collection churn"
    QCheck.(make Gen.(list_size (int_range 10 400) (int_range 1 64)))
    (fun sizes ->
      let mem = Mem.create () in
      let config = { Config.default with Config.initial_pages = 8 } in
      let gc = Gc.create ~config mem ~base:(Addr.of_int 0x400000) ~max_bytes:(512 * 1024) () in
      List.iter (fun s -> ignore (Gc.allocate gc s)) sizes;
      Gc.collect gc;
      Cgc.Verify.check_after_collect gc = [])

(* --- static retention analyzer (lib/analysis) --- *)

module An = Cgc_analysis
module Ir = An.Ir

(* Random but execution-consistent IR programs: every semantic tag
   [{raw; obj = Some id}] really is an address inside object [id]'s
   allocation, object bases never overlap or get reused, and stack
   accesses stay inside the pushed frames.  That is exactly the class
   of programs the recorder can emit, so the analyzer's soundness
   invariant must hold on all of them. *)
let build_ir ops : Ir.program =
  let stack_words = 64 and n_registers = 8 and globals_words = 8 in
  let frame_slots = 4 and frame_padding = 2 in
  let code = ref [] in
  let emit i = code := i :: !code in
  let next_id = ref 0 in
  let handles = ref [] in
  let next_base = ref 0x1000 in
  let sp = ref stack_words in
  let depth = ref 0 in
  (* which handle each global slot currently roots: heap accesses are
     only generated through these, so the program never touches an
     object the collector could already have swept (real recorded
     traces have the same property — the recorder only sees the
     accesses a correct mutator makes) *)
  let slot_of = Array.make globals_words None in
  let usable () = Array.to_list slot_of |> List.filter_map Fun.id in
  let pick l n = List.nth l (n mod List.length l) in
  (* a value the mutator could really produce right now: junk, or a
     handle it still holds (anything beyond the rooted set would be
     conjuring the address of a possibly-swept object from thin air,
     which no correct mutator does and no recorded trace contains) *)
  let value_of n =
    let rooted = usable () in
    if rooted = [] || n mod 3 = 0 then
      (* junk: zero, a small integer, or an integer that may collide
         with the object address range *)
      Ir.vint
        (match n mod 4 with
        | 0 -> 0
        | 1 -> n land 0xffff
        | 2 -> 0x1000 + (n mod 0x4000)
        | _ -> n)
    else
      let id, base, bytes = pick rooted n in
      let off = if n mod 5 = 0 then 4 * (n / 5 mod max 1 (bytes / 4)) else 0 in
      { Ir.raw = base + off; obj = Some id }
  in
  List.iter
    (fun (op, a, b, c) ->
      match op mod 12 with
      | 0 | 1 ->
          let bytes = 8 + (8 * (a mod 3)) in
          let id = !next_id in
          incr next_id;
          let base = !next_base in
          next_base := base + 64;
          handles := (id, base, bytes) :: !handles;
          emit (Ir.Alloc { obj = id; base; bytes; pointer_free = b mod 5 = 0 });
          emit (Ir.Reg_write { reg = c mod n_registers; value = { Ir.raw = base; obj = Some id } });
          let slot = c mod globals_words in
          emit (Ir.Root_write { word = slot; value = { Ir.raw = base; obj = Some id } });
          slot_of.(slot) <- Some (id, base, bytes)
      | 2 -> emit (Ir.Reg_write { reg = a mod n_registers; value = value_of b })
      | 3 -> emit (Ir.Reg_read { reg = a mod n_registers })
      | 4 ->
          if !sp < stack_words then begin
            let w = !sp + (a mod (stack_words - !sp)) in
            if b mod 2 = 0 then emit (Ir.Local_write { word = w; value = value_of c })
            else emit (Ir.Local_read { word = w })
          end
      | 5 ->
          let slot = a mod globals_words in
          if b mod 2 = 0 then begin
            let v = value_of c in
            emit (Ir.Root_write { word = slot; value = v });
            slot_of.(slot) <-
              (match v.Ir.obj with
              | Some id -> List.find_opt (fun (i, _, _) -> i = id) !handles
              | None -> None)
          end
          else emit (Ir.Root_read { word = slot })
      | 6 -> (
          match usable () with
          | [] -> ()
          | rooted ->
              let id, _, bytes = pick rooted a in
              let field = b mod max 1 (bytes / 4) in
              if c mod 2 = 0 then begin
                let v = value_of c in
                emit (Ir.Heap_write { obj = id; field; value = v });
                (* the recorder sees a barrier event exactly when the
                   machine stores a resolvable pointer (machine.ml's
                   write_field), so the synthetic trace card-marks
                   tagged stores the same way *)
                match v.Ir.obj with
                | Some _ -> emit (Ir.Write_barrier { obj = id; field })
                | None -> ()
              end
              else emit (Ir.Heap_read { obj = id; field }))
      | 7 ->
          if !depth < 4 then begin
            emit (Ir.Frame_push { slots = frame_slots; padding = frame_padding; cleared = false });
            sp := !sp - frame_slots - frame_padding;
            incr depth
          end
      | 8 ->
          if !depth > 0 then begin
            emit (Ir.Frame_pop { slots = frame_slots; padding = frame_padding; cleared = false });
            sp := !sp + frame_slots + frame_padding;
            decr depth
          end
      | 9 ->
          if !sp > 0 then begin
            let lo = a mod !sp in
            emit (Ir.Stack_clear { lo_word = lo; n_words = 1 + (b mod (!sp - lo)) })
          end
      | 10 -> emit Ir.Clear_registers
      | _ -> emit (Ir.Gc_point { measured = None }))
    ops;
  emit (Ir.Gc_point { measured = None });
  {
    Ir.n_registers;
    stack_words;
    globals_words;
    interior_pointers = true;
    code = Array.of_list (List.rev !code);
  }

let ir_ops_gen =
  QCheck.Gen.(
    list_size (int_range 60 150)
      (quad (int_bound 10_000) (int_bound 10_000) (int_bound 10_000) (int_bound 10_000)))

let diagnose ops =
  let p = build_ir ops in
  let t = An.Analysis.run p in
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "%a@." Ir.pp p;
  Array.iteri (fun i instr -> Format.fprintf ppf "%3d: %a@." i Ir.pp_instr instr) p.Ir.code;
  List.iter
    (fun (s : An.Apparent.gc_snapshot) ->
      let missing =
        An.Liveness.ISet.diff s.An.Apparent.precise s.An.Apparent.apparent
      in
      if not (An.Liveness.ISet.is_empty missing) then
        Format.fprintf ppf "gc#%d at %d UNSOUND, precise-only ids: %s@." s.An.Apparent.ordinal
          s.An.Apparent.at_instr
          (String.concat ","
             (List.map string_of_int (An.Liveness.ISet.elements missing))))
    t.An.Analysis.retention.An.Apparent.snapshots;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let ir_ops_arb = QCheck.make ir_ops_gen ~shrink:QCheck.Shrink.list ~print:diagnose

let prop_analyzer_sound =
  QCheck.Test.make ~count:80 ~name:"analyzer: apparent is a sound over-approximation"
    ir_ops_arb
    (fun ops -> (An.Analysis.validate (An.Analysis.run (build_ir ops))).An.Analysis.sound)

let cleared_frames (p : Ir.program) =
  {
    p with
    Ir.code =
      Array.map
        (function
          | Ir.Frame_push { slots; padding; _ } -> Ir.Frame_push { slots; padding; cleared = true }
          | Ir.Frame_pop { slots; padding; _ } -> Ir.Frame_pop { slots; padding; cleared = true }
          | i -> i)
        p.Ir.code;
  }

let prop_clearing_monotone =
  QCheck.Test.make ~count:80
    ~name:"analyzer: frame clearing never increases predicted retention" ir_ops_arb (fun ops ->
      let p = build_ir ops in
      let plain = (An.Analysis.run p).An.Analysis.retention.An.Apparent.snapshots in
      let hygienic = An.Analysis.run (cleared_frames p) in
      let cleared = hygienic.An.Analysis.retention.An.Apparent.snapshots in
      (An.Analysis.validate hygienic).An.Analysis.sound
      && List.length plain = List.length cleared
      && List.for_all2
           (fun (u : An.Apparent.gc_snapshot) (c : An.Apparent.gc_snapshot) ->
             An.Liveness.ISet.cardinal c.An.Apparent.apparent
             <= An.Liveness.ISet.cardinal u.An.Apparent.apparent)
           plain cleared)

(* --- fix suggestions are sound on arbitrary recorded programs --- *)

(* Every fix the generator emits must be conservative: the edited
   program keeps the original's precise liveness and its full read
   stream, both in the static model ([verify_static]) and through the
   real collector (the replay harness re-runs the edited trace and
   diffs every value any read returns).  Retention is the only thing a
   fix is allowed to move. *)
let prop_fixes_sound =
  QCheck.Test.make ~count:100 ~name:"analyzer: every emitted fix suggestion is sound" ir_ops_arb
    (fun ops ->
      let p = build_ir ops in
      let t = An.Analysis.run p in
      List.for_all
        (fun (f : An.Analysis.fix) ->
          match f.An.Analysis.suggestion with
          | None -> true
          | Some s ->
              let static_ok =
                match f.An.Analysis.verdict with
                | None -> false
                | Some v -> v.An.Fixes.sv_precise_preserved && v.An.Fixes.sv_reads_preserved
              in
              let c = An.Replay.compare_fix p s.An.Fixes.fx_edits in
              static_ok && c.An.Replay.cmp_reads_equal)
        t.An.Analysis.fixes)

(* --- generational replay dominates conservative retention --- *)

(* A minor collection treats every old page as live and traces young
   data from the same conservative roots, so on any recorded trace the
   generational collector can only over-retain relative to full
   conservative collections — never free something the conservative
   replay kept.  And the dirty-bit lifecycle is exact: every dirty page
   entering a minor is either carried by the collector (rescan kept it,
   or promotion installed it) or the target of a recorded Write_barrier
   store into an old page — nothing else may set a bit. *)
let prop_generational_dominates =
  QCheck.Test.make ~count:60
    ~name:"generational retention >= conservative; dirty bits exactly carried + barriered"
    ir_ops_arb
    (fun ops ->
      let p = build_ir ops in
      let c = An.Replay.run p in
      List.for_all
        (fun promote_after ->
          let g = An.Replay.run_generational ~promote_after p in
          let gr = g.An.Replay.gr_run in
          gr.An.Replay.rp_gc_points = c.An.Replay.rp_gc_points
          && List.for_all2 (fun gb cb -> gb >= cb) gr.An.Replay.rp_retained c.An.Replay.rp_retained
          && gr.An.Replay.rp_total_retained >= c.An.Replay.rp_total_retained
          && List.for_all An.Replay.audit_exact g.An.Replay.gr_audits)
        [ 1; 2 ])

(* --- a single read fault loses at most one object's cone --- *)

(* The marker downgrades a faulted word to "not a pointer", so one
   injected read fault can sever at most one edge (or one root slot) of
   the reachability graph: whatever un-marks must be the transitive cone
   of a single lost object.  And since ECC faults leave memory intact,
   re-marking with the plan lifted must reproduce the fault-free marked
   set bit for bit. *)
let prop_read_fault_cone =
  QCheck.Test.make ~count:150 ~name:"one read fault loses at most one object's cone"
    (QCheck.make QCheck.Gen.(pair graph_gen (int_range 1 400)))
    (fun (g, k) ->
      let gc, objs = build_graph_env g in
      let mem = Gc.mem gc in
      let marked () = Array.map (Gc.Internal.is_marked gc) objs in
      Gc.Internal.run_mark gc;
      let m0 = marked () in
      Mem.set_fault_plan mem (Some (Mem.Fault.plan ~countdown:k ~target:Mem.Fault.Reads ()));
      Gc.Internal.run_mark gc;
      Mem.set_fault_plan mem None;
      let m1 = marked () in
      let n = Array.length objs in
      let subset = ref true in
      for i = 0 to n - 1 do
        if m1.(i) && not m0.(i) then subset := false
      done;
      let lost = List.filter (fun i -> m0.(i) && not m1.(i)) (List.init n Fun.id) in
      let edges = final_edges g in
      let cone r =
        let seen = Array.make n false in
        let rec visit i =
          if not seen.(i) then begin
            seen.(i) <- true;
            List.iter (fun (s, d) -> if s = i then visit d) edges
          end
        in
        visit r;
        seen
      in
      let cone_ok =
        lost = []
        || List.exists
             (fun r ->
               let c = cone r in
               List.for_all (fun i -> c.(i)) lost)
             lost
      in
      Gc.Internal.run_mark gc;
      let m2 = marked () in
      !subset && cone_ok && m2 = m0)

(* --- precise vs conservative, pointwise on one typed trace --- *)

module Precise = Cgc.Precise
module Typed_mutator = Cgc_workloads.Typed_mutator

let precise_world () =
  let mem = Mem.create () in
  let config = Config.default in
  let gc = Gc.create ~config mem ~base:(Addr.of_int 0x400000) ~max_bytes:(1024 * 1024) () in
  let p = Precise.create gc in
  (mem, config, gc, p)

(* The differential session's invariant, as a property over seeds: on
   any typed trace, replayed fault-free, exact retention never exceeds
   the conservative twin's at any completed collect.  (The chaos matrix
   checks the same under fault plans; this pins the fault-free base
   case across many traces.) *)
let prop_precise_le_conservative =
  QCheck.Test.make ~count:40 ~name:"precise <= conservative pointwise on typed traces"
    QCheck.(int_bound 100000)
    (fun seed ->
      let _, config, _, p = precise_world () in
      let ops = Typed_mutator.trace ~seed ~steps:300 in
      let session = Typed_mutator.make_session ~config p ops in
      Array.iter (fun op -> ignore (Typed_mutator.step session op)) ops;
      Typed_mutator.twin_ooms session = 0
      && Typed_mutator.collects_completed session > 0
      && Typed_mutator.issues session = [])

(* Abort-and-restore, as a property: a precise mark aborted by faults
   followed by a fault-free re-collect must land on exactly the live
   set a never-faulted world reaches — the abort restored all mark
   state and freed nothing. *)
let prop_precise_abort_recollect_identical =
  let live_set_after ~seed ~abort =
    let mem, config, gc, p = precise_world () in
    let ops = Typed_mutator.trace ~seed ~steps:250 in
    let session = Typed_mutator.make_session ~config p ops in
    Array.iter (fun op -> ignore (Typed_mutator.step session op)) ops;
    if abort then begin
      Mem.set_fault_plan mem
        (Some (Mem.Fault.plan ~countdown:1 ~rearm:true ~target:Mem.Fault.Reads ()));
      (try Precise.collect p with Precise.Mark_aborted _ -> ());
      Mem.set_fault_plan mem None
    end;
    Precise.collect p;
    let live = ref [] in
    Precise.iter_descriptors p (fun a _ -> live := Addr.to_int a :: !live);
    ((Gc.stats gc).Cgc.Stats.live_objects, List.sort compare !live)
  in
  QCheck.Test.make ~count:30
    ~name:"aborted precise mark + fault-free re-collect = never-faulted collect"
    QCheck.(int_bound 100000)
    (fun seed ->
      live_set_after ~seed ~abort:true = live_set_after ~seed ~abort:false)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bitset_model;
      prop_addr_align;
      prop_addr_trailing_zeros;
      prop_segment_roundtrip;
      prop_segment_endian_assembly;
      prop_rng_bound;
      prop_size_class_rounding;
      prop_displacement_mask;
      prop_free_list_address_ordered;
      prop_gc_reachability_exact;
      prop_gc_idempotent;
      prop_gc_conservation;
      prop_blacklist_invariant;
      prop_explicit_model;
      prop_gc_no_overlap;
      prop_verify_clean;
      prop_verify_clean_under_auto_collect;
      prop_analyzer_sound;
      prop_clearing_monotone;
      prop_fixes_sound;
      prop_generational_dominates;
      prop_read_fault_cone;
      prop_precise_le_conservative;
      prop_precise_abort_recollect_identical;
    ]

let () = Alcotest.run "props" [ ("properties", suite) ]
