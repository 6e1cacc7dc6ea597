(* Seeded session churn, replayed through the collector ([churn]) or
   through malloc/free ([explicit_churn]).

   A table of session slots lives in static data and is the only root.
   Sessions arrive, grow a chain of heavy-tailed length one node at a
   time (newest first), then either truncate to half or expire.  Nodes
   are mostly 8-16 B cells, plus 32 B-1 KB records; a node of 16 B or
   more may carry a side object: a pointer-free blob or, rarely, a
   multi-page object.  Every payload word is a stamp below the heap
   base, so the collector sees no false references.

   The mix is synthetic, not fitted to a measured trace; the README in
   this directory gives the reason for each constant below.

   The trace is generated from the seed before anything is timed, as
   packed ints, so both allocators replay the identical operations. *)

open Cgc_vm

let heap_base = 0x400000
let heap_max = 64 * 1024 * 1024
let table_base = 0x10000
let max_chain = 256
let stamp_mask = 0xFFFFF

type params = {
  slots : int;
  ops : int;  (** timed operations per pass *)
}

let standard = { slots = 512; ops = 1_200_000 }

(* --- trace encoding ---------------------------------------------------
   bits 0-1 op, 2-13 slot, 14-33 a, 34-61 b
   Alloc:    a = node bytes | side kind << 11,  b = side bytes
   Truncate: a = nodes kept,                    b = bytes dropped
   Expire:                                      b = bytes dropped *)

let op_alloc = 0
let op_truncate = 1
let op_expire = 2
let side_none = 0
let side_blob = 1
let side_large = 2

let pack op slot a b = op lor (slot lsl 2) lor (a lsl 14) lor (b lsl 34)
let op_of x = x land 3
let slot_of x = (x lsr 2) land 0xFFF
let a_of x = (x lsr 14) land 0xFFFFF
let b_of x = x lsr 34

type trace = {
  fill : int array;  (** set-up: grows every session to a random share of its target *)
  timed : int array;
}

let node_bytes rng =
  let r = Rng.int rng 100 in
  if r < 60 then 8
  else if r < 88 then 16
  else
    let b = 32 lsl Rng.int rng 6 in
    min 1024 (b + (4 * Rng.int rng (b / 8)))

let side rng bytes =
  if bytes < 16 then (side_none, 0)
  else
    let r = Rng.int rng 1000 in
    if r < 3 then (side_large, 8192 + (4 * Rng.int rng 4096))
    else if r < 150 then (side_blob, 16 + (4 * Rng.int rng 60))
    else (side_none, 0)

(* Pareto(1.5) chain lengths from 4 nodes up, capped. *)
let target rng =
  let u = 1. -. Rng.float rng in
  min max_chain (int_of_float (4. /. (u ** (1. /. 1.5))))

let generate ~seed p =
  if p.slots > 1024 then invalid_arg "Churn.generate: the session table holds 1024 slots";
  let rng = Rng.create seed in
  let targets = Array.init p.slots (fun _ -> target rng) in
  (* per slot, the bytes of each live node (and its side object), oldest first *)
  let sizes = Array.init p.slots (fun _ -> Array.make max_chain 0) in
  let len = Array.make p.slots 0 in
  let alloc slot =
    let nb = node_bytes rng in
    let kind, sb = side rng nb in
    sizes.(slot).(len.(slot)) <- nb + sb;
    len.(slot) <- len.(slot) + 1;
    pack op_alloc slot (nb lor (kind lsl 11)) sb
  in
  let fill = ref [] in
  for slot = 0 to p.slots - 1 do
    for _ = 1 to 1 + Rng.int rng targets.(slot) do
      fill := alloc slot :: !fill
    done
  done;
  let timed =
    Array.init p.ops (fun _ ->
        let slot = Rng.int rng p.slots in
        let n = len.(slot) in
        if n < targets.(slot) then alloc slot
        else if Rng.bool rng then begin
          let keep = max 1 (n / 2) in
          let s = sizes.(slot) in
          let dropped = ref 0 in
          for i = 0 to n - keep - 1 do
            dropped := !dropped + s.(i)
          done;
          Array.blit s (n - keep) s 0 keep;
          len.(slot) <- keep;
          pack op_truncate slot keep !dropped
        end
        else begin
          let dropped = ref 0 in
          for i = 0 to n - 1 do
            dropped := !dropped + sizes.(slot).(i)
          done;
          len.(slot) <- 0;
          targets.(slot) <- target rng;
          pack op_expire slot 0 !dropped
        end)
  in
  { fill = Array.of_list (List.rev !fill); timed }

(* --- the two allocators ------------------------------------------------ *)

module type ALLOCATOR = sig
  type t

  val collected : bool
  val create : Mem.t -> t
  val alloc : t -> pointer_free:bool -> int -> int
  val get : t -> int -> int -> int
  val set : t -> int -> int -> int -> unit

  val release : Meter.run -> t -> int -> unit
  (** The mutator is done with the chain starting at this node. *)

  val flush : Meter.run -> t -> unit
  (** Carry out every release still pending. *)

  val is_allocated : t -> int -> bool
  val committed : t -> int
end

module Collected = struct
  type t = Cgc.Gc.t

  let collected = true

  let create mem =
    let gc = Cgc.Gc.create mem ~base:(Addr.of_int heap_base) ~max_bytes:heap_max () in
    Cgc.Gc.add_static_root gc ~lo:(Addr.of_int table_base)
      ~hi:(Addr.of_int (table_base + 0x1000)) ~label:"sessions";
    (* [Gc.create] does not run the startup collection; the first
       [allocate] would, but only when no collect hook is set.  Run it
       here so both the timed-collect and the split hook start alike. *)
    Cgc.Gc.collect gc;
    gc

  let alloc gc ~pointer_free bytes = Addr.to_int (Cgc.Gc.allocate ~pointer_free gc bytes)
  let get gc a i = Cgc.Gc.get_field gc (Addr.of_int a) i
  let set gc a i v = Cgc.Gc.set_field gc (Addr.of_int a) i v
  let release _ _ _ = ()
  let flush _ _ = ()
  let is_allocated gc a = Cgc.Gc.is_allocated gc (Addr.of_int a)
  let committed gc = Cgc.Heap.committed_bytes (Cgc.Gc.heap gc)
end

(* Objects freed per timed batch: the clock is read twice per batch, so
   its cost is a fraction of a nanosecond per [free]. *)
let free_batch = 256

module Explicit = struct
  type t = {
    e : Cgc.Explicit.t;
    pending : int array;  (** dropped objects not yet freed *)
    mutable n : int;
  }

  let collected = false

  let create mem =
    {
      e = Cgc.Explicit.create mem ~base:(Addr.of_int heap_base) ~max_bytes:heap_max ();
      pending = Array.make free_batch 0;
      n = 0;
    }

  let alloc t ~pointer_free:_ bytes = Addr.to_int (Cgc.Explicit.malloc t.e bytes)
  let get t a i = Cgc.Explicit.get_field t.e (Addr.of_int a) i
  let set t a i v = Cgc.Explicit.set_field t.e (Addr.of_int a) i v

  (* The frees of one batch are one span of [free_ns]; traced, each
     [free] is also a span of its own. *)
  let flush (r : Meter.run) t =
    let traced = Meter.traced r in
    let t0 = Meter.now () in
    for i = 0 to t.n - 1 do
      let a = Addr.of_int t.pending.(i) in
      if traced then begin
        let t1 = Meter.now () in
        Cgc.Explicit.free t.e a;
        Meter.Samples.add r.spans.free (Meter.now () - t1)
      end
      else Cgc.Explicit.free t.e a
    done;
    r.free_ns <- r.free_ns + (Meter.now () - t0);
    t.n <- 0

  (* Walk a dropped chain and queue every node and side object for
     [free]; a full queue is freed at once.  The walk's reads stay
     outside [free_ns]. *)
  let release r t head =
    let push a =
      if t.n = free_batch then flush r t;
      t.pending.(t.n) <- a;
      t.n <- t.n + 1
    in
    let rec walk a =
      if a <> 0 then begin
        let next = get t a 0 in
        if get t a 1 land 1 = 1 then begin
          let s = get t a 2 in
          if s <> 0 then push s
        end;
        push a;
        walk next
      end
    in
    walk head

  let is_allocated t a = Cgc.Explicit.is_allocated t.e (Addr.of_int a)
  let committed t = Cgc.Explicit.committed_bytes t.e
end

(* --- replay ------------------------------------------------------------ *)

module Replay (A : ALLOCATOR) = struct
  type state = {
    r : Meter.run;
    mutable traced : bool;  (** false while the set-up replays the fill *)
    heap : A.t;
    table : Segment.t;
    len : int array;
    serial : int array;  (** nodes ever created in the slot's current session *)
    mutable reachable : int;
    mutable peak_reachable : int;
    mutable peak_committed : int;
  }

  let head st slot = Segment.read_word st.table (Addr.of_int (table_base + (4 * slot)))
  let set_head st slot v = Segment.write_word st.table (Addr.of_int (table_base + (4 * slot))) v

  let set st a i v =
    if st.traced then begin
      let t0 = Meter.now () in
      A.set st.heap a i v;
      Meter.Samples.add st.r.spans.set_field (Meter.now () - t0)
    end
    else A.set st.heap a i v

  let get st a i =
    if st.traced then begin
      let t0 = Meter.now () in
      let v = A.get st.heap a i in
      Meter.Samples.add st.r.spans.get_field (Meter.now () - t0);
      v
    end
    else A.get st.heap a i

  let alloc st ~pointer_free bytes =
    let r = st.r in
    let a =
      if st.traced then begin
        let c0 = r.col.collections in
        let t0 = Meter.now () in
        let a = A.alloc st.heap ~pointer_free bytes in
        let dt = Meter.now () - t0 in
        if r.col.collections = c0 then begin
          let sp = r.spans in
          if not A.collected then Meter.Samples.add sp.malloc dt
          else if bytes > 2048 then Meter.Samples.add sp.alloc_large dt
          else if pointer_free then Meter.Samples.add sp.alloc_atomic dt
          else Meter.Samples.add sp.alloc_small dt
        end;
        a
      end
      else A.alloc st.heap ~pointer_free bytes
    in
    let c = A.committed st.heap in
    if c > st.peak_committed then st.peak_committed <- c;
    r.allocs <- r.allocs + 1;
    a

  let stamp st slot = (st.serial.(slot) land stamp_mask) lsl 1

  let step st x =
    let slot = slot_of x and op = op_of x in
    if op = op_alloc then begin
      let a = a_of x in
      let nb = a land 0x7FF and kind = a lsr 11 and sb = b_of x in
      let carries = if nb >= 16 then 1 else 0 in
      let stamp = stamp st slot lor carries in
      (* link the node before the next allocation can collect *)
      let node = alloc st ~pointer_free:false nb in
      set st node 1 stamp;
      set st node 0 (head st slot);
      set_head st slot node;
      (* malloc does not zero: every word the mutator reads is written *)
      if kind <> side_none then begin
        let s = alloc st ~pointer_free:(kind = side_blob) sb in
        set st s 0 stamp;
        set st node 2 s
        end
      else if carries = 1 then set st node 2 0;
      st.serial.(slot) <- st.serial.(slot) + 1;
      st.len.(slot) <- st.len.(slot) + 1;
      st.reachable <- st.reachable + nb + sb;
      if st.reachable > st.peak_reachable then st.peak_reachable <- st.reachable
    end
    else if op = op_truncate then begin
      let keep = a_of x in
      let cut = ref (head st slot) in
      for _ = 2 to keep do
        cut := get st !cut 0
      done;
      let rest = get st !cut 0 in
      set st !cut 0 0;
      st.len.(slot) <- keep;
      st.reachable <- st.reachable - b_of x;
      A.release st.r st.heap rest
    end
    else begin
      let h = head st slot in
      set_head st slot 0;
      st.len.(slot) <- 0;
      st.serial.(slot) <- 0;
      st.reachable <- st.reachable - b_of x;
      A.release st.r st.heap h
    end

  (* Every chain the model says is reachable is walked from the table:
     each node and side object must still be allocated and carry its
     stamp, and the chain must have the model's length.  Returns the
     number of mismatches and the reachable objects' base addresses. *)
  let verify st =
    let bad = ref 0 and objects = ref [] in
    for slot = 0 to Array.length st.len - 1 do
      let rec walk a i =
        if a = 0 then (if i <> st.len.(slot) then incr bad)
        else if i >= st.len.(slot) || not (A.is_allocated st.heap a) then incr bad
        else begin
          objects := a :: !objects;
          let s = A.get st.heap a 1 in
          let serial = (st.serial.(slot) - 1 - i) land stamp_mask in
          if s lsr 1 <> serial then incr bad;
          if s land 1 = 1 then begin
            let side = A.get st.heap a 2 in
            if side <> 0 then begin
              objects := side :: !objects;
              if not (A.is_allocated st.heap side && A.get st.heap side 0 = s) then incr bad
            end
          end;
          walk (A.get st.heap a 0) (i + 1)
        end
      in
      walk (head st slot) 0
    done;
    (!bad, !objects)
end

let checkpoints = 4

(* One pass: set up (timed as [setup_s]), replay the timed operations
   with integrity checks at [checkpoints] fixed points outside the timed
   phase, and account the pass into [r].  [finish] sees the heap after
   the last check, for counts that need the allocator's own API. *)
let pass (type h) (module A : ALLOCATOR with type t = h) (r : Meter.run) (tr : trace) ~install
    ~finish =
  let module R = Replay (A) in
  let slots = 1 + Array.fold_left (fun m x -> max m (slot_of x)) 0 tr.fill in
  let t0 = Meter.now () in
  let mem = Mem.create () in
  let table =
    Mem.map mem ~name:"sessions" ~kind:Segment.Static_data ~base:(Addr.of_int table_base) ~size:0x1000
  in
  let heap = A.create mem in
  let st =
    {
      R.r;
      traced = false;
      heap;
      table;
      len = Array.make slots 0;
      serial = Array.make slots 0;
      reachable = 0;
      peak_reachable = 0;
      peak_committed = 0;
    }
  in
  let allocs0 = r.allocs in
  Array.iter (R.step st) tr.fill;
  r.allocs <- allocs0;
  r.setups <- float_of_int (Meter.now () - t0) /. 1e9 :: r.setups;
  let col0 = r.col.collections in
  st.traced <- Meter.traced r;
  install heap;
  let n = Array.length tr.timed in
  let chunk = (n + checkpoints - 1) / checkpoints in
  let objects = ref [] in
  let check () =
    let bad, reachable = R.verify st in
    if bad > 0 then Meter.fail r (Printf.sprintf "%d integrity mismatches" bad);
    objects := reachable
  in
  let i = ref 0 in
  while !i < n do
    let hi = min n (!i + chunk) in
    let t0 = Meter.now () in
    for k = !i to hi - 1 do
      R.step st (Array.unsafe_get tr.timed k)
    done;
    A.flush r heap;
    r.timed_ns <- r.timed_ns + (Meter.now () - t0);
    check ();
    i := hi
  done;
  r.attempted <- r.attempted + n;
  r.peak_committed <- r.peak_committed + st.peak_committed;
  r.peak_reachable <- r.peak_reachable + st.peak_reachable;
  let counts = finish heap !objects in
  r.counts <-
    (("collections", r.col.collections - col0)
    :: ("peak_committed", st.peak_committed)
    :: ("peak_reachable", st.peak_reachable)
    :: counts)
    :: r.counts

let run_collected (r : Meter.run) tr =
  let s0 = ref (Cgc.Stats.create ()) in
  pass
    (module Collected)
    r tr
    ~install:(fun gc ->
      s0 := Cgc.Stats.copy (Cgc.Gc.stats gc);
      Meter.install_hook r.col gc)
    ~finish:(fun gc objects ->
      let s0 = !s0 in
      Cgc.Gc.set_collect_hook gc None;
      (* the final collect: whatever survives it that the model calls
         dead is false retention *)
      Cgc.Gc.collect gc;
      let live =
        List.fold_left
          (fun acc a -> acc + Option.value ~default:0 (Cgc.Gc.object_size gc (Addr.of_int a)))
          0 objects
      in
      let s = Cgc.Gc.stats gc in
      let retained = s.Cgc.Stats.live_bytes - live in
      (* no payload word points into the heap, so nothing dead may stay *)
      if retained <> 0 then
        Meter.fail r (Printf.sprintf "churn: %d dead bytes retained with no false references" retained);
      r.retained <- r.retained + retained;
      r.ladder_steps <- r.ladder_steps + (Meter.ladder_steps s - Meter.ladder_steps s0);
      r.heap_expansions <- r.heap_expansions + (s.heap_expansions - s0.heap_expansions);
      r.blacklist_pages <- r.blacklist_pages + Cgc.Gc.blacklisted_pages gc;
      r.rejected_pages <-
        r.rejected_pages + (s.blacklist_rejected_pages - s0.blacklist_rejected_pages);
      let counts =
        [
          ("retained", retained);
          ("words_scanned", s.words_scanned);
          ("objects_marked", s.objects_marked);
          ("objects_freed", s.objects_freed);
        ]
      in
      if Meter.traced r then r.jobs2_speedup <- Meter.jobs2_speedup gc;
      counts)

let run_explicit (r : Meter.run) tr =
  pass
    (module Explicit)
    r tr
    ~install:(fun _ -> ())
    ~finish:(fun { e; _ } objects ->
      let live = Cgc.Explicit.live_objects e in
      if live <> List.length objects then
        Meter.fail r
          (Printf.sprintf "explicit_churn: %d objects allocated, model reaches %d" live
             (List.length objects));
      r.fragmentation <- Cgc.Explicit.fragmentation e :: r.fragmentation;
      [ ("live_objects", live); ("live_bytes", Cgc.Explicit.live_bytes e) ])
