(* Unit tests for the conservative collector core (lib/core). *)

open Cgc_vm
module Gc = Cgc.Gc
module Config = Cgc.Config
module Page = Cgc.Page
module Heap = Cgc.Heap
module Mark = Cgc.Mark
module Blacklist = Cgc.Blacklist
module Free_list = Cgc.Free_list
module Size_class = Cgc.Size_class
module Stats = Cgc.Stats
module Explicit = Cgc.Explicit
module Precise = Cgc.Precise
module Type_desc = Cgc.Type_desc
module Finalize = Cgc.Finalize

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let heap_base = Addr.of_int 0x100000

(* A standard environment: an address space with a root area segment at
   0x10000 and a collector with automatic collection turned off so tests
   control exactly when collections happen. *)
let make_env ?(config = Config.default) ?(heap_kb = 512) () =
  let mem = Mem.create () in
  let globals = Mem.map mem ~name:"globals" ~kind:Segment.Static_data ~base:(Addr.of_int 0x10000) ~size:0x1000 in
  let gc = Gc.create ~config mem ~base:heap_base ~max_bytes:(heap_kb * 1024) () in
  Gc.set_auto_collect gc false;
  Gc.add_static_root gc ~lo:(Segment.base globals) ~hi:(Segment.limit globals) ~label:"globals";
  (mem, globals, gc)

let slot globals i = Addr.add (Segment.base globals) (4 * i)
let set_slot globals i v = Segment.write_word globals (slot globals i) v
let _get_slot globals i = Segment.read_word globals (slot globals i)

(* --- size classes --- *)

let test_size_class_mapping () =
  let sc = Size_class.create Config.default in
  check int "granule" 4 (Size_class.granule sc);
  check int "1 byte -> 1 granule" 1 (Size_class.granules_for sc 1);
  check int "4 bytes -> 1 granule" 1 (Size_class.granules_for sc 4);
  check int "5 bytes -> 2 granules" 2 (Size_class.granules_for sc 5);
  check int "max small" 2048 (Size_class.max_small_bytes sc);
  check bool "2048 small" true (Size_class.is_small sc 2048);
  check bool "2049 large" false (Size_class.is_small sc 2049);
  check int "cons cells per page" 512 (Size_class.objects_per_page sc ~granules:2 ~first_offset:0);
  check int "first offset eats one slot" 511
    (Size_class.objects_per_page sc ~granules:2 ~first_offset:8)

(* --- heap --- *)

let test_heap_geometry () =
  let mem = Mem.create () in
  let heap = Heap.create mem ~config:Config.default ~base:heap_base ~max_bytes:(256 * 1024) in
  check int "pages reserved" 64 (Heap.n_pages heap);
  check int "initial committed" 64 (Heap.committed_pages heap);
  check bool "contains base" true (Heap.contains heap heap_base);
  check bool "excludes limit" false (Heap.contains heap (Heap.limit_reserved heap));
  check int "page index" 1 (Heap.page_index heap (Addr.add heap_base 4096));
  check int "page addr round trip" (Addr.to_int (Addr.add heap_base 8192))
    (Addr.to_int (Heap.page_addr heap 2))

let test_heap_commit () =
  let config = { Config.default with Config.initial_pages = 2 } in
  let mem = Mem.create () in
  let heap = Heap.create mem ~config ~base:heap_base ~max_bytes:(64 * 1024) in
  check int "committed" 2 (Heap.committed_pages heap);
  check bool "commit ok" true (Heap.commit_through heap 5);
  check int "now committed" 6 (Heap.committed_pages heap);
  check bool "page 5 free" true (Heap.page heap 5 = Page.Free);
  check bool "cannot exceed reservation" false (Heap.commit_through heap 1000)

let test_heap_find_free_run () =
  let config = { Config.default with Config.initial_pages = 4 } in
  let mem = Mem.create () in
  let heap = Heap.create mem ~config ~base:heap_base ~max_bytes:(64 * 1024) in
  (* occupy page 1 so a 3-run must start at 2 *)
  Heap.set_page heap 1 (Page.make_large ~n_pages:1 ~object_bytes:100 ~pointer_free:false);
  check (Alcotest.option int) "run skips occupied" (Some 2)
    (Heap.find_free_run heap ~n:3 ~ok:(fun _ -> true));
  check (Alcotest.option int) "run honours ok" (Some 3)
    (Heap.find_free_run heap ~n:3 ~ok:(fun i -> i <> 2))

(* --- basic allocation --- *)

let test_allocate_basics () =
  let _, _, gc = make_env () in
  let a = Gc.allocate gc 8 in
  let b = Gc.allocate gc 8 in
  check bool "distinct objects" false (Addr.equal a b);
  check bool "a allocated" true (Gc.is_allocated gc a);
  check bool "b allocated" true (Gc.is_allocated gc b);
  check (Alcotest.option int) "size rounded to granules" (Some 8) (Gc.object_size gc a);
  check int "zeroed" 0 (Gc.get_field gc a 0);
  check (Alcotest.option int) "interior resolves to base" (Some (Addr.to_int a))
    (Option.map Addr.to_int (Gc.find_object gc (Addr.add a 4)))

let test_allocate_size_rounding () =
  let _, _, gc = make_env () in
  let a = Gc.allocate gc 5 in
  check (Alcotest.option int) "5 bytes -> 8" (Some 8) (Gc.object_size gc a);
  let b = Gc.allocate gc 1 in
  check (Alcotest.option int) "1 byte -> 4" (Some 4) (Gc.object_size gc b)

let test_allocate_rejects_nonpositive () =
  let _, _, gc = make_env () in
  check bool "zero rejected" true
    (try
       ignore (Gc.allocate gc 0);
       false
     with Invalid_argument _ -> true)

let test_field_round_trip () =
  let _, _, gc = make_env () in
  let a = Gc.allocate gc 16 in
  Gc.set_field gc a 3 0xABCDEF01;
  check int "field round trip" 0xABCDEF01 (Gc.get_field gc a 3)

let test_boundary_sizes () =
  let _, globals, gc = make_env ~heap_kb:1024 () in
  (* largest small object and smallest large object *)
  let small = Gc.allocate gc 2048 in
  let large = Gc.allocate gc 2049 in
  check (Alcotest.option int) "2048 stays small" (Some 2048) (Gc.object_size gc small);
  check (Alcotest.option int) "2049 becomes large (exact size)" (Some 2049) (Gc.object_size gc large);
  check bool "large is page aligned" true (Addr.is_aligned large 4096);
  check bool "small is not page sized" false (Addr.is_aligned small 4096 && Gc.object_size gc small = Some 4096);
  (* exactly one page, and one byte beyond *)
  let page = Gc.allocate gc 4096 in
  let pages2 = Gc.allocate gc 4097 in
  set_slot globals 0 (Addr.to_int small);
  set_slot globals 1 (Addr.to_int large);
  set_slot globals 2 (Addr.to_int page);
  set_slot globals 3 (Addr.to_int pages2);
  Gc.collect gc;
  check bool "all boundary objects survive" true
    (Gc.is_allocated gc small && Gc.is_allocated gc large && Gc.is_allocated gc page
   && Gc.is_allocated gc pages2);
  check (Alcotest.list Alcotest.string) "invariants" [] (Cgc.Verify.check gc)

let test_many_classes_interleaved () =
  let _, globals, gc = make_env ~heap_kb:1024 () in
  (* interleave allocations across classes and kinds; then verify class
     integrity via object sizes *)
  let objs =
    List.init 300 (fun i ->
        let bytes = 4 + (4 * (i mod 13)) in
        let pointer_free = i mod 3 = 0 in
        let a = Gc.allocate ~pointer_free gc bytes in
        set_slot globals (i mod 200) (Addr.to_int a);
        (a, (bytes + 3) / 4 * 4))
  in
  List.iter
    (fun (a, expect) -> check (Alcotest.option int) "size preserved" (Some expect) (Gc.object_size gc a))
    objs;
  Gc.collect gc;
  check (Alcotest.list Alcotest.string) "invariants" [] (Cgc.Verify.check gc)

let test_config_validation () =
  let reject name config =
    check bool name true
      (try
         Config.validate config;
         false
       with Invalid_argument _ -> true)
  in
  reject "page size not a power of two" { Config.default with Config.page_size = 3000 };
  reject "page size too small" { Config.default with Config.page_size = 128 };
  reject "bad alignment" { Config.default with Config.alignment = 3 };
  reject "bad granule" { Config.default with Config.granule = 8 };
  reject "zero initial pages" { Config.default with Config.initial_pages = 0 };
  reject "zero divisor" { Config.default with Config.space_divisor = 0 };
  reject "tiny mark stack" { Config.default with Config.mark_stack_limit = Some 4 };
  reject "zero buckets" { Config.default with Config.blacklist_buckets = Some 0 };
  Config.validate Config.default

let test_pp_smoke () =
  (* the printers terminate and emit text *)
  let _, _, gc = make_env () in
  ignore (Gc.allocate gc 8);
  Gc.collect gc;
  let non_empty s = String.length s > 0 in
  check bool "config pp" true (non_empty (Format.asprintf "%a" Config.pp Config.default));
  (* non-default buckets and mark-stack limit are shown *)
  let printed =
    Format.asprintf "%a" Config.pp
      {
        Config.default with
        Config.blacklist_buckets = Some 1024;
        mark_stack_limit = Some 32;
      }
  in
  let mentions needle =
    let n = String.length needle and h = String.length printed in
    let rec at i = i + n <= h && (String.sub printed i n = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle -> check bool ("config pp shows " ^ needle) true (mentions needle))
    [ "buckets=1024"; "mark_stack_limit=32" ];
  check bool "stats pp" true (non_empty (Format.asprintf "%a" Stats.pp (Gc.stats gc)));
  check bool "gc pp" true (non_empty (Format.asprintf "%a" Gc.pp gc));
  check bool "heap pp" true (non_empty (Format.asprintf "%a" Heap.pp (Gc.heap gc)));
  check bool "blacklist pp" true (non_empty (Format.asprintf "%a" Blacklist.pp (Gc.blacklist gc)));
  check bool "page pp" true (non_empty (Format.asprintf "%a" Page.pp (Heap.page (Gc.heap gc) 0)))

(* --- reachability --- *)

let test_root_keeps_object_alive () =
  let _, globals, gc = make_env () in
  let a = Gc.allocate gc 8 in
  set_slot globals 0 (Addr.to_int a);
  Gc.collect gc;
  check bool "rooted object survives" true (Gc.is_allocated gc a)

let test_unreachable_object_collected () =
  let _, _, gc = make_env () in
  let a = Gc.allocate gc 8 in
  Gc.collect gc;
  check bool "unreachable object reclaimed" false (Gc.is_allocated gc a)

let test_transitive_reachability () =
  let _, globals, gc = make_env () in
  let b = Gc.allocate gc 8 in
  let a = Gc.allocate gc 8 in
  Gc.set_field gc a 0 (Addr.to_int b);
  set_slot globals 0 (Addr.to_int a);
  Gc.collect gc;
  check bool "a survives" true (Gc.is_allocated gc a);
  check bool "b survives via a" true (Gc.is_allocated gc b);
  (* break the link *)
  Gc.set_field gc a 0 0;
  Gc.collect gc;
  check bool "a still live" true (Gc.is_allocated gc a);
  check bool "b now reclaimed" false (Gc.is_allocated gc b)

let test_cycle_collected () =
  let _, globals, gc = make_env () in
  let a = Gc.allocate gc 8 in
  let b = Gc.allocate gc 8 in
  Gc.set_field gc a 0 (Addr.to_int b);
  Gc.set_field gc b 0 (Addr.to_int a);
  set_slot globals 0 (Addr.to_int a);
  Gc.collect gc;
  check bool "cycle live while rooted" true (Gc.is_allocated gc b);
  set_slot globals 0 0;
  Gc.collect gc;
  check bool "a of cycle reclaimed" false (Gc.is_allocated gc a);
  check bool "b of cycle reclaimed" false (Gc.is_allocated gc b)

let test_interior_pointer_retains () =
  let _, globals, gc = make_env () in
  let a = Gc.allocate gc 32 in
  set_slot globals 0 (Addr.to_int (Addr.add a 12));
  Gc.collect gc;
  check bool "interior pointer retains" true (Gc.is_allocated gc a)

let test_interior_pointer_ignored_when_disabled () =
  let config = { Config.default with Config.interior_pointers = false } in
  let _, globals, gc = make_env ~config () in
  let a = Gc.allocate gc 32 in
  set_slot globals 0 (Addr.to_int (Addr.add a 12));
  Gc.collect gc;
  check bool "interior pointer does not retain" false (Gc.is_allocated gc a);
  (* but the base pointer still does *)
  let b = Gc.allocate gc 32 in
  set_slot globals 1 (Addr.to_int b);
  Gc.collect gc;
  check bool "base pointer retains" true (Gc.is_allocated gc b)

let test_pointer_free_not_scanned () =
  let _, globals, gc = make_env () in
  let target = Gc.allocate gc 8 in
  let atomic = Gc.allocate ~pointer_free:true gc 8 in
  Gc.set_field gc atomic 0 (Addr.to_int target);
  set_slot globals 0 (Addr.to_int atomic);
  Gc.collect gc;
  check bool "atomic object survives" true (Gc.is_allocated gc atomic);
  check bool "its contents are not traced" false (Gc.is_allocated gc target)

let test_normal_object_is_scanned () =
  let _, globals, gc = make_env () in
  let target = Gc.allocate gc 8 in
  let holder = Gc.allocate gc 8 in
  Gc.set_field gc holder 0 (Addr.to_int target);
  set_slot globals 0 (Addr.to_int holder);
  Gc.collect gc;
  check bool "traced through ordinary object" true (Gc.is_allocated gc target)

let test_register_roots () =
  let _, _, gc = make_env () in
  let regs = Array.make 4 0 in
  Gc.add_register_roots gc ~label:"regs" (fun () -> regs);
  let a = Gc.allocate gc 8 in
  regs.(2) <- Addr.to_int a;
  Gc.collect gc;
  check bool "register value is a root" true (Gc.is_allocated gc a);
  regs.(2) <- 0;
  Gc.collect gc;
  check bool "cleared register frees object" false (Gc.is_allocated gc a)

let test_dynamic_roots () =
  let mem = Mem.create () in
  let scratch = Mem.map mem ~name:"scratch" ~kind:Segment.Stack ~base:(Addr.of_int 0x20000) ~size:0x1000 in
  let gc = Gc.create mem ~base:heap_base ~max_bytes:(256 * 1024) () in
  Gc.set_auto_collect gc false;
  let hi = ref (Segment.base scratch) in
  Gc.add_dynamic_roots gc ~label:"window" (fun () ->
      [ { Cgc.Roots.lo = Segment.base scratch; hi = !hi; label = "window" } ]);
  let a = Gc.allocate gc 8 in
  Segment.write_word scratch (Segment.base scratch) (Addr.to_int a);
  (* window currently empty: value not seen *)
  Gc.collect gc;
  check bool "outside window -> freed" false (Gc.is_allocated gc a);
  let b = Gc.allocate gc 8 in
  Segment.write_word scratch (Segment.base scratch) (Addr.to_int b);
  hi := Addr.add (Segment.base scratch) 8;
  Gc.collect gc;
  check bool "inside window -> survives" true (Gc.is_allocated gc b)

(* --- alignment --- *)

let test_unaligned_root_requires_alignment_1 () =
  let run alignment =
    let config = { Config.default with Config.alignment = alignment } in
    let _, globals, gc = make_env ~config () in
    let a = Gc.allocate gc 8 in
    (* plant the pointer at an odd offset in the root area *)
    let where = Addr.add (Segment.base globals) 13 in
    Segment.write_word globals where (Addr.to_int a);
    Gc.collect gc;
    Gc.is_allocated gc a
  in
  check bool "alignment 4 misses it" false (run 4);
  check bool "alignment 1 finds it" true (run 1)

let test_halfword_alignment_2 () =
  let run alignment =
    let config = { Config.default with Config.alignment = alignment } in
    let _, globals, gc = make_env ~config () in
    let a = Gc.allocate gc 8 in
    let where = Addr.add (Segment.base globals) 10 in
    Segment.write_word globals where (Addr.to_int a);
    Gc.collect gc;
    Gc.is_allocated gc a
  in
  check bool "alignment 4 misses halfword offset" false (run 4);
  check bool "alignment 2 finds it" true (run 2)

(* --- large objects --- *)

let test_large_object_lifecycle () =
  let _, globals, gc = make_env () in
  let size = 3 * 4096 in
  let a = Gc.allocate gc size in
  check (Alcotest.option int) "size" (Some size) (Gc.object_size gc a);
  check bool "page aligned" true (Addr.is_aligned a 4096);
  set_slot globals 0 (Addr.to_int a);
  Gc.collect gc;
  check bool "rooted large object survives" true (Gc.is_allocated gc a);
  set_slot globals 0 0;
  Gc.collect gc;
  check bool "dropped large object reclaimed" false (Gc.is_allocated gc a)

let test_large_tail_pointer () =
  let run large_validity =
    let config = { Config.default with Config.large_validity } in
    let _, globals, gc = make_env ~config () in
    let a = Gc.allocate gc (3 * 4096) in
    (* a pointer into the second page *)
    set_slot globals 0 (Addr.to_int (Addr.add a 5000));
    Gc.collect gc;
    Gc.is_allocated gc a
  in
  check bool "anywhere: tail pointer retains" true (run Config.Anywhere);
  check bool "first-page-only: tail pointer does not" false (run Config.First_page_only)

let test_large_first_page_interior () =
  let config = { Config.default with Config.large_validity = Config.First_page_only } in
  let _, globals, gc = make_env ~config () in
  let a = Gc.allocate gc (3 * 4096) in
  set_slot globals 0 (Addr.to_int (Addr.add a 100));
  Gc.collect gc;
  check bool "pointer into first page retains" true (Gc.is_allocated gc a)

let test_large_reuse_after_free () =
  let config = { Config.default with Config.initial_pages = 4 } in
  let _, _, gc = make_env ~config ~heap_kb:64 () in
  (* allocate and drop several large objects; the reserve (16 pages)
     only survives if pages are actually recycled *)
  for _ = 1 to 20 do
    let a = Gc.allocate gc (4 * 4096) in
    ignore a;
    Gc.collect gc
  done;
  check bool "large pages recycled" true (Heap.committed_pages (Gc.heap gc) <= 16)

(* --- finalization --- *)

let test_finalizer_queue () =
  let _, globals, gc = make_env () in
  let a = Gc.allocate ~finalizer:"list-1" gc 8 in
  set_slot globals 0 (Addr.to_int a);
  Gc.collect gc;
  check (Alcotest.list (Alcotest.pair int Alcotest.string)) "nothing finalized while live" []
    (List.map (fun (a, t) -> (Addr.to_int a, t)) (Gc.drain_finalized gc));
  set_slot globals 0 0;
  Gc.collect gc;
  check
    (Alcotest.list (Alcotest.pair int Alcotest.string))
    "finalized on reclamation"
    [ (Addr.to_int a, "list-1") ]
    (List.map (fun (a, t) -> (Addr.to_int a, t)) (Gc.drain_finalized gc))

let test_finalizer_registry () =
  let f = Finalize.create () in
  Finalize.register f (Addr.of_int 100) ~token:"x";
  Finalize.register f (Addr.of_int 200) ~token:"y";
  check int "registered" 2 (Finalize.registered_count f);
  Finalize.unregister f (Addr.of_int 100);
  check bool "unregistered" false (Finalize.is_registered f (Addr.of_int 100));
  Finalize.on_reclaimed f (Addr.of_int 100);
  check int "unregistered not queued" 0 (Finalize.queue_length f);
  Finalize.on_reclaimed f (Addr.of_int 200);
  check int "queued" 1 (Finalize.queue_length f);
  check
    (Alcotest.list (Alcotest.pair int Alcotest.string))
    "drain" [ (200, "y") ]
    (List.map (fun (a, t) -> (Addr.to_int a, t)) (Finalize.drain f));
  check int "drained" 0 (Finalize.queue_length f)

(* --- blacklisting --- *)

let test_blacklist_unit () =
  let b = Blacklist.create ~n_pages:16 ~refresh:true () in
  Blacklist.note b 3;
  check bool "noted" true (Blacklist.is_black b 3);
  Blacklist.begin_cycle b;
  check bool "survives one cycle" true (Blacklist.is_black b 3);
  Blacklist.begin_cycle b;
  check bool "ages out after two cycles" false (Blacklist.is_black b 3);
  let sticky = Blacklist.create ~n_pages:16 ~refresh:false () in
  Blacklist.note sticky 3;
  Blacklist.begin_cycle sticky;
  Blacklist.begin_cycle sticky;
  check bool "sticky entries persist" true (Blacklist.is_black sticky 3)

let test_blacklist_avoids_false_ref_page () =
  let config = { Config.default with Config.initial_pages = 8 } in
  let _, globals, gc = make_env ~config ~heap_kb:64 () in
  (* plant a false reference into committed-but-empty heap page 4 *)
  let target_page = 4 in
  let poison = Addr.add (Heap.page_addr (Gc.heap gc) target_page) 8 in
  set_slot globals 0 (Addr.to_int poison);
  Gc.collect gc;
  check bool "page is blacklisted" true (Blacklist.is_black (Gc.blacklist gc) target_page);
  (* now allocate enough pointer-bearing objects to need several pages *)
  let heap = Gc.heap gc in
  for _ = 1 to 3000 do
    let a = Gc.allocate gc 8 in
    check bool "never lands on the blacklisted page" false
      (Heap.page_index heap a = target_page)
  done

let test_blacklist_covers_uncommitted_region () =
  (* The startup-collection scenario: a false reference to memory the
     heap will only later grow into must still be blacklisted. *)
  let config = { Config.default with Config.initial_pages = 1 } in
  let _, globals, gc = make_env ~config ~heap_kb:64 () in
  let future_page = 10 in
  let poison = Addr.add (Heap.page_addr (Gc.heap gc) future_page) 4 in
  set_slot globals 0 (Addr.to_int poison);
  Gc.collect gc;
  check bool "future page blacklisted" true (Blacklist.is_black (Gc.blacklist gc) future_page);
  (* let the collector run normally while churning through garbage; the
     standing false reference must keep the page off limits *)
  Gc.set_auto_collect gc true;
  let heap = Gc.heap gc in
  for _ = 1 to 12000 do
    let a = Gc.allocate gc 8 in
    check bool "growth skips poisoned page" false (Heap.page_index heap a = future_page)
  done

let test_atomic_allowed_on_black_pages () =
  let config = { Config.default with Config.initial_pages = 2 } in
  let _, globals, gc = make_env ~config ~heap_kb:16 () in
  (* blacklist every page except page 0 (where the two initial pages
     will serve pointer-free data); then atomic allocation must still
     succeed by using black pages *)
  let heap = Gc.heap gc in
  for p = 0 to Heap.n_pages heap - 1 do
    set_slot globals p (Addr.to_int (Addr.add (Heap.page_addr heap p) 12))
  done;
  Gc.collect gc;
  check bool "whole heap blacklisted" true (Blacklist.count (Gc.blacklist gc) >= Heap.n_pages heap - 1);
  let a = Gc.allocate ~pointer_free:true gc 8 in
  check bool "atomic allocation succeeded on black page" true (Gc.is_allocated gc a);
  (* pointer-bearing allocation, by contrast, must fail: every page is black *)
  check bool "pointer-bearing allocation fails" true
    (try
       (* enough to exhaust any page acquired before the blacklist filled *)
       for _ = 1 to 10000 do
         ignore (Gc.allocate gc 8)
       done;
       false
     with Gc.Out_of_memory _ -> true)

let test_blacklist_off_allows_false_retention () =
  (* End-to-end contrast of table 1: with blacklisting off, a false
     reference planted before allocation retains a garbage object. *)
  let run blacklisting =
    let config = { Config.default with Config.blacklisting; initial_pages = 2 } in
    let _, globals, gc = make_env ~config ~heap_kb:64 () in
    let heap = Gc.heap gc in
    (* poison one page that allocation will soon reach *)
    let page = 3 in
    let poison = Addr.add (Heap.page_addr heap page) 16 in
    set_slot globals 0 (Addr.to_int poison);
    Gc.collect gc;
    (* allocate garbage until that page gets used (or not) *)
    let used = ref false in
    (for _ = 1 to 4000 do
       let a = Gc.allocate gc 8 in
       if Heap.page_index heap a = page then used := true
     done);
    Gc.collect gc;
    if not !used then `Never_used
    else if Gc.find_object gc poison <> None then `Retained
    else `Collected
  in
  check bool "without blacklisting the poisoned page retains garbage" true
    (run false = `Retained);
  check bool "with blacklisting the page is never used" true (run true = `Never_used)

let test_blacklist_refresh_releases_pages () =
  let config = { Config.default with Config.initial_pages = 8 } in
  let _, globals, gc = make_env ~config ~heap_kb:64 () in
  set_slot globals 0 (Addr.to_int (Addr.add (Heap.page_addr (Gc.heap gc) 5) 4));
  Gc.collect gc;
  check bool "blacklisted while reference stands" true (Blacklist.is_black (Gc.blacklist gc) 5);
  set_slot globals 0 0;
  Gc.collect gc;
  Gc.collect gc;
  check bool "released after the reference disappears" false
    (Blacklist.is_black (Gc.blacklist gc) 5)

(* --- classification --- *)

let test_blacklist_hashed () =
  let b = Blacklist.create ~representation:(Blacklist.Hashed 8) ~n_pages:256 ~refresh:false () in
  Blacklist.note b 13;
  check bool "noted page black" true (Blacklist.is_black b 13);
  (* some other page shares the bucket: collision blacklists it too *)
  let collided = ref 0 in
  for p = 0 to 255 do
    if p <> 13 && Blacklist.is_black b p then incr collided
  done;
  check bool "collisions exist with 8 buckets over 256 pages" true (!collided > 0);
  check bool "but most pages stay clean" true (!collided < 100);
  check int "count includes collision victims" (!collided + 1) (Blacklist.count b)

let test_blacklist_hashed_end_to_end () =
  (* the hashed variant must still prevent false retention *)
  let config =
    { Config.default with Config.initial_pages = 8; blacklist_buckets = Some 64 }
  in
  let _, globals, gc = make_env ~config ~heap_kb:128 () in
  let target_page = 4 in
  set_slot globals 0 (Addr.to_int (Addr.add (Heap.page_addr (Gc.heap gc) target_page) 8));
  Gc.collect gc;
  check bool "page black via hash" true (Blacklist.is_black (Gc.blacklist gc) target_page);
  for _ = 1 to 2000 do
    let a = Gc.allocate gc 8 in
    check bool "never on the hashed-black page" false
      (Heap.page_index (Gc.heap gc) a = target_page)
  done

let test_classify () =
  let _, _, gc = make_env () in
  let heap = Gc.heap gc in
  let config = Gc.config gc in
  let a = Gc.allocate gc 8 in
  (match Mark.classify heap config (Addr.to_int a) with
  | Mark.Valid { base; _ } -> check int "base pointer valid" (Addr.to_int a) (Addr.to_int base)
  | Mark.False_in_heap _ | Mark.Outside -> Alcotest.fail "expected Valid");
  (match Mark.classify heap config (Addr.to_int a + 4) with
  | Mark.Valid { base; _ } -> check int "interior resolves" (Addr.to_int a) (Addr.to_int base)
  | Mark.False_in_heap _ | Mark.Outside -> Alcotest.fail "expected Valid interior");
  (match Mark.classify heap config (Addr.to_int (Heap.page_addr heap (Heap.n_pages heap - 1))) with
  | Mark.False_in_heap _ -> ()
  | Mark.Valid _ | Mark.Outside -> Alcotest.fail "expected False_in_heap for reserved page");
  (match Mark.classify heap config 0x5000 with
  | Mark.Outside -> ()
  | Mark.Valid _ | Mark.False_in_heap _ -> Alcotest.fail "expected Outside below heap");
  match Mark.classify heap config (Addr.to_int (Heap.limit_reserved heap)) with
  | Mark.Outside -> ()
  | Mark.Valid _ | Mark.False_in_heap _ -> Alcotest.fail "expected Outside above heap"

let test_classify_freed_slot_is_false () =
  let _, _, gc = make_env () in
  let a = Gc.allocate gc 8 in
  Gc.collect gc;
  match Mark.classify (Gc.heap gc) (Gc.config gc) (Addr.to_int a) with
  | Mark.False_in_heap _ -> ()
  | Mark.Valid _ | Mark.Outside -> Alcotest.fail "freed slot must classify as false reference"

(* --- trailing zero avoidance --- *)

let test_avoid_trailing_zeros () =
  (* heap base 0x100000 has 20 trailing zeros; page 0 triggers the
     avoidance, page 1 (0x101000, 12 trailing zeros) does too at k=12,
     but not at k=13. *)
  let config = { Config.default with Config.avoid_trailing_zeros = Some 13; initial_pages = 4 } in
  let _, _, gc = make_env ~config () in
  let a = Gc.allocate gc 8 in
  (* first object of the first page must be displaced off the page base *)
  check bool "object not at page-aligned address" false (Addr.is_aligned a 4096);
  check int "displaced by one granule" 4 (Addr.to_int a - Addr.to_int (Addr.align_down a 4096))

let test_no_avoidance_by_default () =
  let _, _, gc = make_env () in
  let a = Gc.allocate gc 8 in
  check bool "first object at page base" true (Addr.is_aligned a 4096)

(* --- heap growth and OOM --- *)

let test_heap_grows_on_demand () =
  let config = { Config.default with Config.initial_pages = 1 } in
  let _, globals, gc = make_env ~config ~heap_kb:64 () in
  (* keep everything live via a chain from the globals *)
  let prev = ref 0 in
  for i = 1 to 2000 do
    let a = Gc.allocate gc 8 in
    Gc.set_field gc a 0 !prev;
    prev := Addr.to_int a;
    if i mod 100 = 0 then set_slot globals 0 !prev
  done;
  set_slot globals 0 !prev;
  check bool "heap expanded" true (Heap.committed_pages (Gc.heap gc) > 1);
  Gc.collect gc;
  check int "all 2000 cells live" 2000 (Gc.stats gc).Stats.live_objects

(* A large run placed on pages that are already committed is not an
   expansion, even when it ends at the committed watermark. *)
let test_large_on_committed_pages_is_not_expansion () =
  let config = { Config.default with Config.initial_pages = 4; full_gc_at_startup = false } in
  let _, _, gc = make_env ~config () in
  ignore (Gc.allocate gc (4 * 4096));
  Gc.collect gc;
  ignore (Gc.allocate gc (4 * 4096));
  check int "committed pages unchanged" 4 (Heap.committed_pages (Gc.heap gc));
  check int "no heap expansions" 0 (Gc.stats gc).Stats.heap_expansions;
  (* one page past the watermark is a real expansion *)
  ignore (Gc.allocate gc (4 * 4096));
  check bool "heap grew" true (Heap.committed_pages (Gc.heap gc) > 4);
  check int "one heap expansion" 1 (Gc.stats gc).Stats.heap_expansions

let test_out_of_memory () =
  let config = { Config.default with Config.initial_pages = 1 } in
  let _, globals, gc = make_env ~config ~heap_kb:8 () in
  (* 8 KB reserve = 2 pages; keep a growing chain live until OOM *)
  check bool "exhaustion raises" true
    (try
       let prev = ref 0 in
       for _ = 1 to 10000 do
         let a = Gc.allocate gc 8 in
         Gc.set_field gc a 0 !prev;
         prev := Addr.to_int a;
         set_slot globals 0 !prev
       done;
       false
     with Gc.Out_of_memory _ -> true)

let test_auto_collect_triggers () =
  let config = { Config.default with Config.initial_pages = 4; space_divisor = 2 } in
  let mem = Mem.create () in
  let gc = Gc.create ~config mem ~base:heap_base ~max_bytes:(64 * 1024) () in
  (* auto-collect left on; garbage churn must trigger collections and
     keep the heap bounded *)
  for _ = 1 to 20000 do
    ignore (Gc.allocate gc 8)
  done;
  check bool "collections happened" true ((Gc.stats gc).Stats.collections > 1);
  check bool "heap stayed bounded" true (Heap.committed_pages (Gc.heap gc) < 16)

let test_startup_collection_runs_before_first_alloc () =
  let mem = Mem.create () in
  let globals = Mem.map mem ~name:"globals" ~kind:Segment.Static_data ~base:(Addr.of_int 0x10000) ~size:0x100 in
  let gc = Gc.create mem ~base:heap_base ~max_bytes:(512 * 1024) () in
  Gc.add_static_root gc ~lo:(Segment.base globals) ~hi:(Segment.limit globals) ~label:"globals";
  (* poison a page before any allocation *)
  let poison_page = 2 in
  Segment.write_word globals (Segment.base globals)
    (Addr.to_int (Addr.add (Heap.page_addr (Gc.heap gc) poison_page) 4));
  let a = Gc.allocate gc 8 in
  check bool "startup GC ran" true ((Gc.stats gc).Stats.collections >= 1);
  check bool "first allocation avoided the poisoned page" false
    (Heap.page_index (Gc.heap gc) a = poison_page)

(* --- sweep internals --- *)

let test_sweep_releases_empty_pages () =
  let config = { Config.default with Config.initial_pages = 8 } in
  let _, _, gc = make_env ~config () in
  for _ = 1 to 2000 do
    ignore (Gc.allocate gc 8)
  done;
  let used_before = Heap.free_page_count (Gc.heap gc) in
  Gc.collect gc;
  let free_after = Heap.free_page_count (Gc.heap gc) in
  check bool "pages returned to the pool" true (free_after > used_before);
  check int "nothing live" 0 (Gc.stats gc).Stats.live_objects

let test_sweep_rebuilds_address_ordered_free_lists () =
  let _, globals, gc = make_env () in
  (* allocate three, keep the middle one *)
  let a = Gc.allocate gc 8 in
  let b = Gc.allocate gc 8 in
  let c = Gc.allocate gc 8 in
  ignore a;
  ignore c;
  set_slot globals 0 (Addr.to_int b);
  Gc.collect gc;
  (* next two allocations must reuse a then c (ascending addresses) *)
  let x = Gc.allocate gc 8 in
  let y = Gc.allocate gc 8 in
  check int "lowest address reused first" (Addr.to_int a) (Addr.to_int x);
  check int "then the next one" (Addr.to_int c) (Addr.to_int y)

let test_trim_returns_trailing_pages () =
  let config = { Config.default with Config.initial_pages = 4 } in
  let _, globals, gc = make_env ~config () in
  (* force expansion, then drop everything *)
  let prev = ref 0 in
  for _ = 1 to 8000 do
    let a = Gc.allocate gc 8 in
    Gc.set_field gc a 0 !prev;
    prev := Addr.to_int a;
    set_slot globals 0 !prev
  done;
  let grown = Heap.committed_pages (Gc.heap gc) in
  check bool "heap grew" true (grown > 4);
  set_slot globals 0 0;
  Gc.collect gc;
  let released = Gc.trim gc in
  check bool "pages released" true (released > 0);
  check bool "committed dropped" true (Heap.committed_pages (Gc.heap gc) < grown);
  (* the heap still works *)
  let a = Gc.allocate gc 8 in
  check bool "allocation after trim" true (Gc.is_allocated gc a);
  check (Alcotest.list Alcotest.string) "invariants hold" [] (Cgc.Verify.check gc)

let test_live_bytes_accounting () =
  let _, globals, gc = make_env () in
  let a = Gc.allocate gc 24 in
  set_slot globals 0 (Addr.to_int a);
  Gc.collect gc;
  check int "live bytes" 24 (Gc.live_bytes gc);
  check int "heap live_bytes agrees" 24 (Heap.live_bytes (Gc.heap gc))

(* --- free lists --- *)

let test_free_list_policies () =
  let fl = Free_list.create ~n_classes:4 Free_list.Lifo in
  Free_list.add fl ~granules:2 ~pointer_free:false 100;
  Free_list.add fl ~granules:2 ~pointer_free:false 50;
  check (Alcotest.option int) "lifo pops most recent" (Some 50)
    (Free_list.take fl ~granules:2 ~pointer_free:false);
  let fl = Free_list.create ~n_classes:4 Free_list.Address_ordered in
  Free_list.add fl ~granules:2 ~pointer_free:false 100;
  Free_list.add fl ~granules:2 ~pointer_free:false 50;
  Free_list.add fl ~granules:2 ~pointer_free:false 75;
  check (Alcotest.option int) "ordered pops lowest" (Some 50)
    (Free_list.take fl ~granules:2 ~pointer_free:false);
  check (Alcotest.option int) "then next" (Some 75)
    (Free_list.take fl ~granules:2 ~pointer_free:false)

let test_free_list_kinds_separate () =
  let fl = Free_list.create ~n_classes:4 Free_list.Lifo in
  Free_list.add fl ~granules:2 ~pointer_free:false 100;
  check (Alcotest.option int) "atomic class is separate" None
    (Free_list.take fl ~granules:2 ~pointer_free:true);
  check int "total" 1 (Free_list.total fl)

(* --- explicit allocator baseline --- *)

let make_explicit ?policy () =
  let mem = Mem.create () in
  Explicit.create ?policy mem ~base:heap_base ~max_bytes:(256 * 1024) ()

let test_explicit_roundtrip () =
  let e = make_explicit () in
  let a = Explicit.malloc e 16 in
  check bool "allocated" true (Explicit.is_allocated e a);
  check int "live bytes" 16 (Explicit.live_bytes e);
  Explicit.set_field e a 0 77;
  check int "fields work" 77 (Explicit.get_field e a 0);
  Explicit.free e a;
  check bool "freed" false (Explicit.is_allocated e a);
  check int "live zero" 0 (Explicit.live_bytes e)

let test_explicit_double_free () =
  let e = make_explicit () in
  let a = Explicit.malloc e 16 in
  Explicit.free e a;
  check bool "double free rejected" true
    (try
       Explicit.free e a;
       false
     with Invalid_argument _ -> true)

let test_explicit_wild_free () =
  let e = make_explicit () in
  let a = Explicit.malloc e 16 in
  check bool "interior free rejected" true
    (try
       Explicit.free e (Addr.add a 4);
       false
     with Invalid_argument _ -> true)

let test_explicit_reuse_order () =
  let e = make_explicit ~policy:Free_list.Address_ordered () in
  let a = Explicit.malloc e 8 in
  let b = Explicit.malloc e 8 in
  let c = Explicit.malloc e 8 in
  Explicit.free e c;
  Explicit.free e a;
  Explicit.free e b;
  check int "address-ordered reuse" (Addr.to_int a) (Addr.to_int (Explicit.malloc e 8));
  let e = make_explicit ~policy:Free_list.Lifo () in
  let a = Explicit.malloc e 8 in
  let _b = Explicit.malloc e 8 in
  let c = Explicit.malloc e 8 in
  Explicit.free e c;
  Explicit.free e a;
  check int "lifo reuse" (Addr.to_int a) (Addr.to_int (Explicit.malloc e 8))

let test_explicit_large () =
  let e = make_explicit () in
  let a = Explicit.malloc e (3 * 4096) in
  check bool "large allocated" true (Explicit.is_allocated e a);
  Explicit.free e a;
  let b = Explicit.malloc e (3 * 4096) in
  check int "pages reused" (Addr.to_int a) (Addr.to_int b)

let test_explicit_release_empty_pages () =
  let e = make_explicit () in
  let objs = List.init 100 (fun _ -> Explicit.malloc e 8) in
  List.iter (Explicit.free e) objs;
  check bool "releases the page" true (Explicit.release_empty_pages e >= 1);
  check bool "still works after" true (Explicit.is_allocated e (Explicit.malloc e 8))

(* --- precise baseline --- *)

let test_precise_no_false_references () =
  let mem = Mem.create () in
  let gc = Gc.create mem ~base:heap_base ~max_bytes:(256 * 1024) () in
  Gc.set_auto_collect gc false;
  let p = Precise.create gc in
  let roots = ref [] in
  Precise.add_root_provider p (fun () -> !roots);
  let a = Precise.allocate p Type_desc.cons in
  let b = Precise.allocate p Type_desc.cons in
  Gc.set_field gc a 0 (Addr.to_int b);
  roots := [ a ];
  Precise.collect p;
  check bool "root survives" true (Gc.is_allocated gc a);
  check bool "field-referenced survives" true (Gc.is_allocated gc b);
  (* an integer that happens to equal b's address in a non-pointer field
     of an atomic object must NOT retain anything *)
  let c = Precise.allocate p (Type_desc.atomic ~name:"blob" ~size_bytes:8) in
  Gc.set_field gc c 0 (Addr.to_int b);
  Gc.set_field gc a 0 0;
  roots := [ a; c ];
  Precise.collect p;
  check bool "atomic contents not traced" false (Gc.is_allocated gc b)

let test_precise_vs_conservative_misidentification () =
  (* the same bit pattern: conservative retains, precise does not *)
  let mem = Mem.create () in
  let globals = Mem.map mem ~name:"globals" ~kind:Segment.Static_data ~base:(Addr.of_int 0x10000) ~size:0x100 in
  let gc = Gc.create mem ~base:heap_base ~max_bytes:(256 * 1024) () in
  Gc.set_auto_collect gc false;
  Gc.add_static_root gc ~lo:(Segment.base globals) ~hi:(Segment.limit globals) ~label:"globals";
  let p = Precise.create gc in
  Precise.add_root_provider p (fun () -> []);
  let a = Precise.allocate p Type_desc.cons in
  (* "integer" in static data happens to hold a's address *)
  Segment.write_word globals (Segment.base globals) (Addr.to_int a);
  Gc.collect gc;
  check bool "conservative retains" true (Gc.is_allocated gc a);
  Precise.collect p;
  check bool "precise reclaims" false (Gc.is_allocated gc a)

let test_type_desc_validation () =
  check bool "unaligned offset rejected" true
    (try
       ignore (Type_desc.make ~name:"bad" ~size_bytes:8 ~pointer_offsets:[ 2 ]);
       false
     with Invalid_argument _ -> true);
  check bool "out of bounds rejected" true
    (try
       ignore (Type_desc.make ~name:"bad" ~size_bytes:8 ~pointer_offsets:[ 8 ]);
       false
     with Invalid_argument _ -> true);
  check bool "descending rejected" true
    (try
       ignore (Type_desc.make ~name:"bad" ~size_bytes:12 ~pointer_offsets:[ 4; 0 ]);
       false
     with Invalid_argument _ -> true);
  check bool "cons is sane" true (Type_desc.cons.Type_desc.size_bytes = 8)

(* Regression: the layout table must not leak — sweeping an object has
   to evict its descriptor row, or the table grows without bound and
   [check_precise_mark] would trace through freed memory. *)
let test_precise_desc_eviction () =
  let mem = Mem.create () in
  let gc = Gc.create mem ~base:heap_base ~max_bytes:(256 * 1024) () in
  let p = Precise.create gc in
  let roots = ref [] in
  Precise.add_root_provider p (fun () -> !roots);
  let keep = Precise.allocate p Type_desc.cons in
  roots := [ keep ];
  let dead = List.init 50 (fun _ -> Precise.allocate p Type_desc.cons) in
  check bool "table holds every allocation" true (Precise.descriptor_count p >= 51);
  Precise.collect p;
  check int "swept rows evicted" 1 (Precise.descriptor_count p);
  List.iter
    (fun a -> check bool "freed object has no descriptor" true (Precise.descriptor p a = None))
    dead;
  check bool "live object keeps its descriptor" true (Precise.descriptor p keep <> None)

(* The exact scanner derives field indices as [offset / granule]; a
   config with non-default scan alignment must not perturb that — the
   pointer map is byte-offset-based, not alignment-based. *)
let test_precise_nondefault_alignment_geometry () =
  let config = { Config.default with Config.alignment = 2 } in
  let mem = Mem.create () in
  let gc = Gc.create ~config mem ~base:heap_base ~max_bytes:(256 * 1024) () in
  let p = Precise.create gc in
  let roots = ref [] in
  Precise.add_root_provider p (fun () -> !roots);
  let rec_desc =
    Type_desc.make ~name:"rec" ~size_bytes:32 ~pointer_offsets:[ 8; 24 ]
  in
  let r = Precise.allocate p rec_desc in
  let a = Precise.allocate p Type_desc.cons in
  let b = Precise.allocate p Type_desc.cons in
  Gc.set_field gc r 2 (Addr.to_int a);
  (* word 2 = offset 8 *)
  Gc.set_field gc r 6 (Addr.to_int b);
  (* word 6 = offset 24 *)
  (* a heap-looking value in a non-map word must not retain *)
  let c = Precise.allocate p Type_desc.cons in
  Gc.set_field gc r 1 (Addr.to_int c);
  roots := [ r ];
  Precise.collect p;
  check bool "offset-8 child survives" true (Gc.is_allocated gc a);
  check bool "offset-24 child survives" true (Gc.is_allocated gc b);
  check bool "non-map word does not retain" false (Gc.is_allocated gc c)

(* An exhausted transient-fault retry budget must abort the exact mark
   with the typed exception, restore the pre-collect mark state, and
   leave the heap ready for a clean re-collect once the plan lifts. *)
let test_precise_mark_abort_and_restore () =
  let mem = Mem.create () in
  let gc = Gc.create mem ~base:heap_base ~max_bytes:(256 * 1024) () in
  let p = Precise.create gc in
  let roots = ref [] in
  Precise.add_root_provider p (fun () -> !roots);
  let a = Precise.allocate p Type_desc.cons in
  let b = Precise.allocate p Type_desc.cons in
  Gc.set_field gc a 0 (Addr.to_int b);
  roots := [ a ];
  let dead = Precise.allocate p Type_desc.cons in
  ignore dead;
  Mem.set_fault_plan mem
    (Some (Mem.Fault.plan ~countdown:1 ~rearm:true ~target:Mem.Fault.Reads ()));
  let aborted =
    try
      Precise.collect p;
      false
    with Precise.Mark_aborted { retries; _ } ->
      check bool "retry budget was spent" true (retries >= 1);
      true
  in
  check bool "mark aborted under rearming read faults" true aborted;
  Mem.set_fault_plan mem None;
  let s = Gc.stats gc in
  check bool "abort counted" true (s.Stats.precise_mark_aborts >= 1);
  check bool "retries counted" true (s.Stats.precise_mark_retries >= 1);
  check bool "aborted cycle completed no collection" true (s.Stats.precise_collections = 0);
  check (Alcotest.list Alcotest.string) "heap coherent after abort" []
    (Cgc.Verify.check_precise_mark p);
  Precise.collect p;
  check bool "root survives the re-collect" true (Gc.is_allocated gc a);
  check bool "child survives the re-collect" true (Gc.is_allocated gc b);
  check int "exactly the garbage was freed" 2 s.Stats.live_objects

(* A root provider naming a freed address is a mutator bug the marker
   must surface (counted + audited), never trace through or crash on. *)
let test_precise_stale_root_detection () =
  let mem = Mem.create () in
  let gc = Gc.create mem ~base:heap_base ~max_bytes:(256 * 1024) () in
  let p = Precise.create gc in
  let live = ref [] in
  let stale = ref [] in
  Precise.add_root_provider p (fun () -> !live @ !stale);
  let a = Precise.allocate p Type_desc.cons in
  let doomed = Precise.allocate p Type_desc.cons in
  live := [ a ];
  Precise.collect p;
  check bool "doomed freed" false (Gc.is_allocated gc doomed);
  stale := [ doomed ];
  Precise.collect p;
  let s = Gc.stats gc in
  check bool "stale root counted" true (s.Stats.precise_stale_roots >= 1);
  check bool "stale address audited" true (List.mem doomed (Precise.last_stale_roots p));
  check bool "live root unaffected" true (Gc.is_allocated gc a)

(* Allocation pressure must drive the wrapped collector's ladder into
   the exact collector via the hook: unrooted garbage is reclaimed
   without anyone calling [Precise.collect] and without a conservative
   cycle racing the exact one. *)
let test_precise_hook_collects_under_pressure () =
  let config = { Config.default with Config.initial_pages = 8 } in
  let mem = Mem.create () in
  let gc = Gc.create ~config mem ~base:heap_base ~max_bytes:(64 * 1024) () in
  let p = Precise.create gc in
  Precise.add_root_provider p (fun () -> []);
  for _ = 1 to 5000 do
    ignore (Precise.allocate p Type_desc.cons : Addr.t)
  done;
  let s = Gc.stats gc in
  check bool "hook drove exact collections" true (s.Stats.precise_collections >= 1);
  check bool "every cycle was exact" true
    (s.Stats.collections = s.Stats.precise_collections);
  check bool "garbage was reclaimed" true (s.Stats.objects_freed >= 4000)

(* A bounded mark stack must overflow gracefully: the fixpoint rescan
   retains the whole chain, and the overflow episode is counted. *)
let test_precise_bounded_mark_stack () =
  let config = { Config.default with Config.mark_stack_limit = Some 16 } in
  let mem = Mem.create () in
  let gc = Gc.create ~config mem ~base:heap_base ~max_bytes:(256 * 1024) () in
  let p = Precise.create gc in
  let roots = ref [] in
  Precise.add_root_provider p (fun () -> !roots);
  (* a 64-way fan-out overflows the 16-slot stack in one scan; the
     fixpoint rescan must still reach every child *)
  let fanout = 64 in
  let arr_desc =
    Type_desc.make ~name:"wide" ~size_bytes:(4 * fanout)
      ~pointer_offsets:(List.init fanout (fun i -> 4 * i))
  in
  let hub = Precise.allocate p arr_desc in
  for i = 0 to fanout - 1 do
    let c = Precise.allocate p Type_desc.cons in
    Gc.set_field gc hub i (Addr.to_int c)
  done;
  roots := [ hub ];
  Precise.collect p;
  let s = Gc.stats gc in
  check int "hub and every child retained" (fanout + 1) s.Stats.live_objects;
  check bool "overflow episode counted" true (s.Stats.mark_stack_overflows >= 1)

(* --- stats --- *)

let test_stats_counters () =
  let _, globals, gc = make_env () in
  let s = Gc.stats gc in
  let a = Gc.allocate gc 8 in
  set_slot globals 0 (Addr.to_int a);
  ignore (Gc.allocate gc 8);
  check int "objects allocated" 2 s.Stats.objects_allocated;
  check int "bytes allocated" 16 s.Stats.bytes_allocated;
  Gc.collect gc;
  check int "collections" 1 s.Stats.collections;
  check int "one freed" 1 s.Stats.objects_freed;
  check int "one live" 1 s.Stats.live_objects;
  check bool "words were scanned" true (s.Stats.words_scanned > 0);
  check bool "a valid ref was seen" true (s.Stats.valid_refs >= 1)

(* Phase times are wall-clock.  A second domain spins for the whole
   collection, so process CPU time ([Sys.time]) would count two CPUs and
   overshoot the wall time of the collection itself.  The bracket uses
   the same clock and the same ns-to-seconds rounding as [Stats.now], so
   the bound holds exactly. *)
let test_phase_clock_is_wall_time () =
  let _, globals, gc = make_env ~heap_kb:4096 () in
  for i = 0 to 63 do
    let head = Gc.allocate gc 16 in
    let prev = ref (Addr.to_int head) in
    for _ = 1 to 400 do
      let c = Gc.allocate gc 16 in
      Gc.set_field gc c 0 !prev;
      prev := Addr.to_int c
    done;
    set_slot globals i !prev
  done;
  let s = Gc.stats gc in
  Stats.reset s;
  let started = Atomic.make false and stop = Atomic.make false in
  let spinner =
    Domain.spawn (fun () ->
        Atomic.set started true;
        while not (Atomic.get stop) do
          Domain.cpu_relax ()
        done)
  in
  let secs ns = Int64.to_float ns *. 1e-9 in
  let b0, b1 =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join spinner)
      (fun () ->
        while not (Atomic.get started) do
          Domain.cpu_relax ()
        done;
        let b0 = Monotonic_clock.now () in
        Gc.collect gc;
        (b0, Monotonic_clock.now ()))
  in
  check int "one collection" 1 s.Stats.collections;
  check bool "total_gc_seconds <= bracketing wall time" true
    (s.Stats.total_gc_seconds <= secs b1 -. secs b0)

(* [merge_marking] is a *transfer*: it folds a shard's trace counters
   into the target and zeroes the shard, so double-merging a shard is
   idempotent. *)
let fill_shard () =
  let sh = Stats.create () in
  sh.Stats.words_scanned <- 100;
  sh.Stats.valid_refs <- 40;
  sh.Stats.false_refs <- 7;
  sh.Stats.objects_marked <- 25;
  sh.Stats.header_cache_hits <- 12;
  sh.Stats.mark_stack_overflows <- 2;
  sh.Stats.mark_downgrades <- 1;
  sh

let trace_tuple s =
  ( s.Stats.words_scanned,
    s.Stats.valid_refs,
    s.Stats.false_refs,
    s.Stats.objects_marked,
    s.Stats.header_cache_hits,
    s.Stats.mark_stack_overflows,
    s.Stats.mark_downgrades )

let test_stats_merge_marking_empty_shard () =
  let into = fill_shard () in
  let before = trace_tuple into in
  Stats.merge_marking ~into (Stats.create ());
  check bool "empty shard is a no-op" true (trace_tuple into = before)

let test_stats_merge_marking_double_merge () =
  let into = Stats.create () in
  let shard = fill_shard () in
  Stats.merge_marking ~into shard;
  check bool "shard zeroed by the transfer" true
    (trace_tuple shard = (0, 0, 0, 0, 0, 0, 0));
  let after_first = trace_tuple into in
  check bool "counters transferred" true (after_first = (100, 40, 7, 25, 12, 2, 1));
  Stats.merge_marking ~into shard;
  check bool "double merge is idempotent" true (trace_tuple into = after_first)

(* --- generational promoted-bytes accounting --- *)

module Generational = Cgc.Generational

(* promoted_bytes charges live bytes at the moment of promotion, for
   both page shapes: a partially-dead small page charges only its
   surviving slots, never its capacity. *)
let test_promoted_bytes_small_partial_page () =
  let _, globals, gc = make_env () in
  let gen = Generational.create ~promote_after:1 gc in
  let a = Generational.allocate gen 256 in
  let b = Generational.allocate gen 256 in
  let c = Generational.allocate gen 256 in
  let d = Generational.allocate gen 256 in
  set_slot globals 0 (Addr.to_int a);
  set_slot globals 1 (Addr.to_int b);
  ignore c;
  ignore d;
  Generational.minor gen;
  let s = Generational.stats gen in
  check int "one page promoted" 1 s.Generational.promoted_pages;
  check int "promoted bytes = surviving slots only" 512 s.Generational.promoted_bytes;
  check bool "survivor is old" true (Generational.is_old gen a)

let test_promoted_bytes_large_object () =
  let _, globals, gc = make_env () in
  let gen = Generational.create ~promote_after:1 gc in
  let a = Generational.allocate gen 8192 in
  set_slot globals 0 (Addr.to_int a);
  Generational.minor gen;
  let s = Generational.stats gen in
  check int "both pages promoted" 2 s.Generational.promoted_pages;
  check int "promoted bytes = the live span" 8192 s.Generational.promoted_bytes;
  check bool "large object is old" true (Generational.is_old gen a);
  (* a dead large object is swept before it can age: nothing promotes,
     nothing is charged *)
  let _, _, gc2 = make_env () in
  let gen2 = Generational.create ~promote_after:1 gc2 in
  ignore (Generational.allocate gen2 8192);
  Generational.minor gen2;
  let s2 = Generational.stats gen2 in
  check int "dead large: no pages promoted" 0 s2.Generational.promoted_pages;
  check int "dead large: no bytes charged" 0 s2.Generational.promoted_bytes

let () =
  Alcotest.run "gc"
    [
      ( "size-class",
        [ Alcotest.test_case "mapping" `Quick test_size_class_mapping ] );
      ( "heap",
        [
          Alcotest.test_case "geometry" `Quick test_heap_geometry;
          Alcotest.test_case "commit" `Quick test_heap_commit;
          Alcotest.test_case "find free run" `Quick test_heap_find_free_run;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "basics" `Quick test_allocate_basics;
          Alcotest.test_case "size rounding" `Quick test_allocate_size_rounding;
          Alcotest.test_case "rejects non-positive" `Quick test_allocate_rejects_nonpositive;
          Alcotest.test_case "field round trip" `Quick test_field_round_trip;
          Alcotest.test_case "boundary sizes" `Quick test_boundary_sizes;
          Alcotest.test_case "many classes" `Quick test_many_classes_interleaved;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "printers" `Quick test_pp_smoke;
        ] );
      ( "reachability",
        [
          Alcotest.test_case "root keeps alive" `Quick test_root_keeps_object_alive;
          Alcotest.test_case "unreachable collected" `Quick test_unreachable_object_collected;
          Alcotest.test_case "transitive" `Quick test_transitive_reachability;
          Alcotest.test_case "cycles" `Quick test_cycle_collected;
          Alcotest.test_case "interior retains" `Quick test_interior_pointer_retains;
          Alcotest.test_case "interior disabled" `Quick test_interior_pointer_ignored_when_disabled;
          Alcotest.test_case "pointer-free not scanned" `Quick test_pointer_free_not_scanned;
          Alcotest.test_case "normal scanned" `Quick test_normal_object_is_scanned;
          Alcotest.test_case "register roots" `Quick test_register_roots;
          Alcotest.test_case "dynamic roots" `Quick test_dynamic_roots;
        ] );
      ( "alignment",
        [
          Alcotest.test_case "unaligned root" `Quick test_unaligned_root_requires_alignment_1;
          Alcotest.test_case "halfword root" `Quick test_halfword_alignment_2;
        ] );
      ( "large",
        [
          Alcotest.test_case "lifecycle" `Quick test_large_object_lifecycle;
          Alcotest.test_case "tail pointers" `Quick test_large_tail_pointer;
          Alcotest.test_case "first page interior" `Quick test_large_first_page_interior;
          Alcotest.test_case "reuse after free" `Quick test_large_reuse_after_free;
        ] );
      ( "finalize",
        [
          Alcotest.test_case "queue" `Quick test_finalizer_queue;
          Alcotest.test_case "registry" `Quick test_finalizer_registry;
        ] );
      ( "blacklist",
        [
          Alcotest.test_case "unit" `Quick test_blacklist_unit;
          Alcotest.test_case "avoids false-ref page" `Quick test_blacklist_avoids_false_ref_page;
          Alcotest.test_case "covers uncommitted region" `Quick test_blacklist_covers_uncommitted_region;
          Alcotest.test_case "atomic on black pages" `Quick test_atomic_allowed_on_black_pages;
          Alcotest.test_case "off allows retention" `Quick test_blacklist_off_allows_false_retention;
          Alcotest.test_case "refresh releases pages" `Quick test_blacklist_refresh_releases_pages;
          Alcotest.test_case "hashed variant" `Quick test_blacklist_hashed;
          Alcotest.test_case "hashed end to end" `Quick test_blacklist_hashed_end_to_end;
        ] );
      ( "classify",
        [
          Alcotest.test_case "cases" `Quick test_classify;
          Alcotest.test_case "freed slot" `Quick test_classify_freed_slot_is_false;
        ] );
      ( "trailing-zeros",
        [
          Alcotest.test_case "avoidance" `Quick test_avoid_trailing_zeros;
          Alcotest.test_case "off by default" `Quick test_no_avoidance_by_default;
        ] );
      ( "growth",
        [
          Alcotest.test_case "grows on demand" `Quick test_heap_grows_on_demand;
          Alcotest.test_case "large on committed pages is no expansion" `Quick
            test_large_on_committed_pages_is_not_expansion;
          Alcotest.test_case "out of memory" `Quick test_out_of_memory;
          Alcotest.test_case "auto collect" `Quick test_auto_collect_triggers;
          Alcotest.test_case "startup collection" `Quick test_startup_collection_runs_before_first_alloc;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "releases empty pages" `Quick test_sweep_releases_empty_pages;
          Alcotest.test_case "address-ordered free lists" `Quick
            test_sweep_rebuilds_address_ordered_free_lists;
          Alcotest.test_case "live bytes" `Quick test_live_bytes_accounting;
          Alcotest.test_case "trim" `Quick test_trim_returns_trailing_pages;
        ] );
      ( "free-list",
        [
          Alcotest.test_case "policies" `Quick test_free_list_policies;
          Alcotest.test_case "kinds separate" `Quick test_free_list_kinds_separate;
        ] );
      ( "explicit",
        [
          Alcotest.test_case "roundtrip" `Quick test_explicit_roundtrip;
          Alcotest.test_case "double free" `Quick test_explicit_double_free;
          Alcotest.test_case "wild free" `Quick test_explicit_wild_free;
          Alcotest.test_case "reuse order" `Quick test_explicit_reuse_order;
          Alcotest.test_case "large" `Quick test_explicit_large;
          Alcotest.test_case "release empty pages" `Quick test_explicit_release_empty_pages;
        ] );
      ( "precise",
        [
          Alcotest.test_case "no false references" `Quick test_precise_no_false_references;
          Alcotest.test_case "vs conservative" `Quick test_precise_vs_conservative_misidentification;
          Alcotest.test_case "type descriptors" `Quick test_type_desc_validation;
          Alcotest.test_case "descriptor eviction on sweep" `Quick test_precise_desc_eviction;
          Alcotest.test_case "non-default alignment geometry" `Quick
            test_precise_nondefault_alignment_geometry;
          Alcotest.test_case "mark abort and restore" `Quick test_precise_mark_abort_and_restore;
          Alcotest.test_case "stale root detection" `Quick test_precise_stale_root_detection;
          Alcotest.test_case "hook collects under pressure" `Quick
            test_precise_hook_collects_under_pressure;
          Alcotest.test_case "bounded mark stack" `Quick test_precise_bounded_mark_stack;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_stats_counters;
          Alcotest.test_case "merge_marking: empty shard" `Quick
            test_stats_merge_marking_empty_shard;
          Alcotest.test_case "merge_marking: transfer + double-merge idempotence" `Quick
            test_stats_merge_marking_double_merge;
          Alcotest.test_case "phase clock is wall time beside a spinning domain" `Quick
            test_phase_clock_is_wall_time;
        ] );
      ( "generational-accounting",
        [
          Alcotest.test_case "small partial page charges live bytes" `Quick
            test_promoted_bytes_small_partial_page;
          Alcotest.test_case "large object charges live span only" `Quick
            test_promoted_bytes_large_object;
        ] );
    ]
