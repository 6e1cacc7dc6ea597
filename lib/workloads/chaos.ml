open Cgc_vm
module Gc = Cgc.Gc
module Verify = Cgc.Verify

type collector = Conservative | Generational | Explicit | Precise

let collector_name = function
  | Conservative -> "conservative"
  | Generational -> "generational"
  | Explicit -> "explicit"
  | Precise -> "precise"

let all_collectors = [ Conservative; Generational; Explicit; Precise ]

type plan_spec =
  | Countdown of { every : int }
  | Chance of { probability : float; seed : int }
  | Quota of { bytes : int }
  | Read_chance of { probability : float; seed : int }
  | Read_decay of { every : int; region : int }
  | Write_chance of { probability : float; seed : int }
  | Write_decay of { every : int; region : int }

let plan_name = function
  | Countdown { every } -> Printf.sprintf "countdown-%d" every
  | Chance { probability; seed = _ } -> Printf.sprintf "chance-%.3f" probability
  | Quota { bytes } -> Printf.sprintf "quota-%dk" (bytes / 1024)
  | Read_chance { probability; seed = _ } -> Printf.sprintf "read-chance-%.4f" probability
  | Read_decay { every; region } -> Printf.sprintf "read-decay-%d/%dB" every region
  | Write_chance { probability; seed = _ } -> Printf.sprintf "write-chance-%.4f" probability
  | Write_decay { every; region } -> Printf.sprintf "write-decay-%d/%dB" every region

let instantiate = function
  | Countdown { every } -> Mem.Fault.plan ~countdown:every ~rearm:true ()
  | Chance { probability; seed } -> Mem.Fault.plan ~probability:(probability, seed) ()
  | Quota { bytes } -> Mem.Fault.plan ~quota_bytes:bytes ()
  | Read_chance { probability; seed } ->
      Mem.Fault.plan ~probability:(probability, seed) ~target:Mem.Fault.Reads ()
  | Read_decay { every; region } ->
      Mem.Fault.plan ~countdown:every ~rearm:true ~target:Mem.Fault.Reads ~decay_bytes:region ()
  | Write_chance { probability; seed } ->
      Mem.Fault.plan ~probability:(probability, seed) ~target:Mem.Fault.Writes ()
  | Write_decay { every; region } ->
      Mem.Fault.plan ~countdown:every ~rearm:true ~target:Mem.Fault.Writes ~decay_bytes:region ()

type outcome = {
  collector : string;
  scenario : string;
  plan : string;
  steps : int;
  faults_injected : int;
  ooms_caught : int;
  mutator_read_faults : int;
  mutator_write_faults : int;
  escaped : string list;
  verify_issues : string list;
  post_fault_alloc_failures : int;
  recovered : bool;
  final_issues : string list;
  stats : Cgc.Stats.t;
  overrides : int;
  retention : (int * int) option;
      (* precise cells: (exact live, conservative-twin live) at the last
         completed exact collect of the typed differential session *)
}

let clean o =
  o.escaped = [] && o.verify_issues = [] && o.post_fault_alloc_failures = 0 && o.recovered
  && o.final_issues = []

(* Uniform view of one memory-management backend: the same random
   mutator drives the conservative collector, the generational wrapper
   and the explicit malloc/free baseline through this record. *)
type ops = {
  alloc : pointer_free:bool -> int -> Addr.t;
  read_field : Addr.t -> int -> int;
  write_field : Addr.t -> int -> int -> unit;
  is_alloc : Addr.t -> bool;
  size_of : Addr.t -> int option;
  drop : Addr.t -> bool;  (* explicit free; [false] = collector-managed, nothing freed *)
  collect : unit -> unit;
  drain : unit -> unit;  (* generational: a major collection; a no-op elsewhere *)
  trim : unit -> unit;
  heap : Cgc.Heap.t;
  audit_fault : unit -> string list;
  audit_final : unit -> string list;
  snapshot : unit -> Cgc.Stats.t;
  overrides : unit -> int;
}

(* The mutator world: a globals segment of root slots plus the chosen
   backend, mirroring the soak tests.  Faults are installed on [mem]
   only after construction, so the initial commit always succeeds. *)
type world = {
  mem : Mem.t;
  ops : ops;
  globals : Segment.t;
  rng : Rng.t;
  mutable live : Addr.t list;
  precise : Cgc.Precise.t option;
      (* the typed view when [collector = Precise]; the scenario driver
         runs the typed differential mutator over it instead of the
         untyped soak *)
}

let n_slots = 64

let make_world ~seed ~config ~collector =
  let mem = Mem.create () in
  let globals =
    Mem.map mem ~name:"globals" ~kind:Segment.Static_data ~base:(Addr.of_int 0x10000) ~size:0x1000
  in
  let base = Addr.of_int 0x400000 and max_bytes = 8 * 1024 * 1024 in
  let add_root gc =
    Gc.add_static_root gc ~lo:(Segment.base globals) ~hi:(Segment.limit globals) ~label:"globals"
  in
  let gc_common gc =
    {
      alloc = (fun ~pointer_free bytes -> Gc.allocate ~pointer_free gc bytes);
      read_field = Gc.get_field gc;
      write_field = Gc.set_field gc;
      is_alloc = Gc.is_allocated gc;
      size_of = Gc.object_size gc;
      drop = (fun _ -> false);
      collect = (fun () -> Gc.collect gc);
      drain = (fun () -> ());
      trim = (fun () -> ignore (Gc.trim gc : int));
      heap = Gc.heap gc;
      audit_fault = (fun () -> Verify.check_after_fault gc);
      audit_final = (fun () -> Verify.check gc);
      snapshot = (fun () -> Cgc.Stats.copy (Gc.stats gc));
      overrides = (fun () -> Cgc.Blacklist.overridden (Gc.blacklist gc));
    }
  in
  let ops, precise =
    match collector with
    | Conservative ->
        let gc = Gc.create ~config mem ~base ~max_bytes () in
        add_root gc;
        (gc_common gc, None)
    | Precise ->
        let gc = Gc.create ~config mem ~base ~max_bytes () in
        add_root gc;
        (* [Precise.create] turns auto-collect off and redirects the
           budget/ladder Collect paths into the exact collect *)
        let p = Cgc.Precise.create gc in
        ( {
            (gc_common gc) with
            alloc =
              (* probe allocations (the post-fault liveness check) go
                 through the typed allocator like everything else on
                 this heap: an atomic layout of the requested size *)
              (fun ~pointer_free:_ bytes ->
                Cgc.Precise.allocate p (Cgc.Type_desc.atomic ~name:"probe" ~size_bytes:bytes));
            collect =
              (fun () ->
                (* an aborted exact mark is a typed, absorbed outcome:
                   marks are restored and the collect retries later *)
                try Cgc.Precise.collect p with Cgc.Precise.Mark_aborted _ -> ());
            audit_fault = (fun () -> Verify.check_after_fault gc @ Verify.check_precise_mark p);
            audit_final = (fun () -> Verify.check gc @ Verify.check_precise_mark p);
          },
          Some p )
    | Generational ->
        let gc = Gc.create ~config mem ~base ~max_bytes () in
        add_root gc;
        Gc.set_auto_collect gc false;
        let g = Cgc.Generational.create gc in
        ( {
            (gc_common gc) with
            alloc = (fun ~pointer_free bytes -> Cgc.Generational.allocate ~pointer_free g bytes);
            write_field = Cgc.Generational.set_field g;
            collect = (fun () -> Cgc.Generational.minor g);
            drain = (fun () -> Cgc.Generational.major g);
          },
          None )
    | Explicit ->
        let e =
          Cgc.Explicit.create ~page_size:config.Cgc.Config.page_size mem ~base ~max_bytes ()
        in
        let release () = ignore (Cgc.Explicit.release_empty_pages e : int) in
        ( {
            alloc = (fun ~pointer_free:_ bytes -> Cgc.Explicit.malloc e bytes);
          read_field = Cgc.Explicit.get_field e;
          write_field = Cgc.Explicit.set_field e;
          is_alloc = Cgc.Explicit.is_allocated e;
          size_of = (fun a -> if Cgc.Explicit.is_allocated e a then Some 4 else None);
          drop =
            (fun a ->
              if Cgc.Explicit.is_allocated e a then begin
                Cgc.Explicit.free e a;
                true
              end
              else false);
          collect = release;
          drain = (fun () -> ());
          trim = release;
          heap = Cgc.Explicit.heap e;
          audit_fault = (fun () -> Verify.check_heap (Cgc.Explicit.heap e));
          audit_final = (fun () -> Verify.check_heap (Cgc.Explicit.heap e));
          snapshot = (fun () -> Cgc.Stats.create ());
          overrides = (fun () -> 0);
          },
          None )
  in
  { mem; ops; globals; rng = Rng.create seed; live = []; precise }

let set_slot w i v = Segment.write_word w.globals (Addr.add (Segment.base w.globals) (4 * i)) v

let random_live w =
  match w.live with
  | [] -> None
  | l -> Some (List.nth l (Rng.int w.rng (List.length l)))

(* One random mutator step; allocation failures under pressure are
   expected and counted by the caller via the raised [Out_of_memory],
   and so are typed access faults surfacing from field reads/writes. *)
let step w =
  let ops = w.ops in
  match Rng.int w.rng 100 with
  | n when n < 45 ->
      let bytes = 4 + (4 * Rng.int w.rng 12) in
      let pointer_free = Rng.chance w.rng 0.2 in
      let a = ops.alloc ~pointer_free bytes in
      w.live <- a :: w.live;
      if Rng.chance w.rng 0.6 then set_slot w (Rng.int w.rng n_slots) (Addr.to_int a)
  | n when n < 55 ->
      let bytes = 3000 + Rng.int w.rng 12000 in
      let a = ops.alloc ~pointer_free:false bytes in
      if Rng.chance w.rng 0.8 then set_slot w (Rng.int w.rng n_slots) (Addr.to_int a)
  | n when n < 70 -> (
      match (random_live w, random_live w) with
      | Some a, Some b when ops.is_alloc a && ops.is_alloc b -> (
          match ops.size_of a with
          | Some size when size >= 4 -> ops.write_field a (Rng.int w.rng (size / 4)) (Addr.to_int b)
          | _ -> ())
      | _ -> ())
  | n when n < 76 -> (
      (* copy a field of a live object into a root slot (a guarded read) *)
      match random_live w with
      | Some a when ops.is_alloc a -> set_slot w (Rng.int w.rng n_slots) (ops.read_field a 0)
      | _ -> ())
  | n when n < 82 -> (
      set_slot w (Rng.int w.rng n_slots) 0;
      (* under explicit management a dropped object is freed outright *)
      match random_live w with
      | Some a when ops.drop a -> w.live <- List.filter (fun b -> not (Addr.equal b a)) w.live
      | _ -> ())
  | n when n < 89 ->
      (* plant a false reference: a random heap-region value *)
      let v = Addr.to_int (Cgc.Heap.base ops.heap) + Rng.int w.rng (8 * 1024 * 1024) in
      set_slot w (Rng.int w.rng n_slots) v
  | n when n < 95 -> ops.collect ()
  | n when n < 98 -> ops.drain ()
  | _ -> ops.trim ()

(* Allocate once with the fault plan lifted: after an injected fault (or
   at the end of a run) the backend must be immediately usable. *)
let fault_free_alloc_ok w =
  let saved = Mem.fault_plan w.mem in
  Mem.set_fault_plan w.mem None;
  let ok =
    match w.ops.alloc ~pointer_free:false 8 with
    | a -> w.ops.is_alloc a
    | exception (Gc.Out_of_memory _ | Cgc.Explicit.Out_of_memory _) ->
        (* a tiny heap genuinely full of live data may refuse even 8
           bytes; distinguish that from incoherence by checking room *)
        Cgc.Heap.free_page_count w.ops.heap > 0
    | exception _ -> false
  in
  Mem.set_fault_plan w.mem saved;
  ok

let run_scenario ?(steps = 1500) ?(collector = Conservative) ~seed ~scenario ~config ~plan () =
  let w = make_world ~seed ~config ~collector in
  (* Precise cells replay a typed trace through the differential session
     (exact view under faults vs a pristine conservative twin); the
     session is built before the plan arms so twin construction cannot
     fault. *)
  let typed =
    match w.precise with
    | Some p ->
        let tops = Typed_mutator.trace ~seed ~steps in
        Some (tops, Typed_mutator.make_session ~config p tops)
    | None -> None
  in
  let fp = instantiate plan in
  Mem.set_fault_plan w.mem (Some fp);
  let ooms = ref 0 in
  let mut_reads = ref 0 in
  let mut_writes = ref 0 in
  let escaped = ref [] in
  let issues = ref [] in
  let post_fault_failures = ref 0 in
  let last_faults = ref 0 in
  for i = 1 to steps do
    (try
       match typed with
       | Some (tops, session) ->
           if i - 1 < Array.length tops then begin
             match Typed_mutator.step session tops.(i - 1) with
             | `Ok | `Aborted -> () (* an abort is a typed, absorbed outcome *)
             | `Oom -> incr ooms
             | `Read_fault -> incr mut_reads
             | `Write_fault -> incr mut_writes
           end
       | None -> step w
     with
    | Gc.Out_of_memory _ | Cgc.Explicit.Out_of_memory _ -> incr ooms
    | Mem.Read_fault _ -> incr mut_reads
    | Mem.Write_fault _ -> incr mut_writes
    | e -> escaped := Printf.sprintf "step %d: %s" i (Printexc.to_string e) :: !escaped);
    let faults = Mem.faults_injected w.mem in
    if faults > !last_faults then begin
      last_faults := faults;
      (* crash coherence: the fault must not have torn the heap *)
      List.iter
        (fun s -> issues := Printf.sprintf "step %d: %s" i s :: !issues)
        (w.ops.audit_fault ());
      if not (fault_free_alloc_ok w) then incr post_fault_failures
    end;
    if i mod 400 = 0 then
      w.live <- List.filteri (fun i _ -> i < 150) (List.filter w.ops.is_alloc w.live)
  done;
  Mem.set_fault_plan w.mem None;
  let recovered = fault_free_alloc_ok w in
  let final_issues = w.ops.audit_final () in
  let stats = w.ops.snapshot () in
  (* Typed-differential discipline (precise cells): the pointwise
     invariant — exact retention never exceeds the conservative twin's
     on the same trace — must have held at every completed exact
     collect, and the twin must never have hit allocation pressure
     (which would void the subset argument). *)
  let final_issues, retention =
    match typed with
    | None -> (final_issues, None)
    | Some (_, session) ->
        let issues = Typed_mutator.issues session @ final_issues in
        let issues =
          let t_ooms = Typed_mutator.twin_ooms session in
          if t_ooms > 0 then
            Printf.sprintf "conservative twin hit allocation pressure %d times" t_ooms :: issues
          else issues
        in
        (issues, Typed_mutator.last_retention session)
  in
  {
    collector = collector_name collector;
    scenario;
    plan = plan_name plan;
    steps;
    faults_injected = Mem.faults_injected w.mem;
    ooms_caught = !ooms;
    mutator_read_faults = !mut_reads;
    mutator_write_faults = !mut_writes;
    escaped = List.rev !escaped;
    verify_issues = List.rev !issues;
    post_fault_alloc_failures = !post_fault_failures;
    recovered;
    final_issues;
    stats;
    overrides = w.ops.overrides ();
    retention;
  }

let base_config = { Cgc.Config.default with Cgc.Config.initial_pages = 8 }

let default_scenarios =
  [
    ("eager", base_config);
    ("bounded-stack", { base_config with Cgc.Config.mark_stack_limit = Some 32 });
    ("hashed-blacklist", { base_config with Cgc.Config.blacklist_buckets = Some 1024 });
    ("relaxed", { base_config with Cgc.Config.relax_blacklist = true });
  ]

let default_plans ~seed =
  [
    Countdown { every = 7 };
    Chance { probability = 0.04; seed = seed lxor 0xFA17 };
    Quota { bytes = 48 * 4096 };
  ]

let access_plans ~seed =
  [
    Read_chance { probability = 0.0005; seed = seed lxor 0x5EED };
    Read_decay { every = 2000; region = 256 };
    Write_chance { probability = 0.01; seed = seed lxor 0xDECA };
    Write_decay { every = 40; region = 512 };
  ]

let scenarios_for = function
  | Conservative -> default_scenarios
  | Generational | Explicit -> [ ("eager", base_config) ]
  | Precise ->
      (* the exact marker's two interesting axes: the default geometry
         and the bounded preallocated mark stack (overflow rescans) *)
      [
        ("eager", base_config);
        ("bounded-stack", { base_config with Cgc.Config.mark_stack_limit = Some 32 });
      ]

let run_matrix ?(steps = 1500) ?(collectors = all_collectors) ~seed () =
  List.concat_map
    (fun collector ->
      List.concat_map
        (fun (scenario, config) ->
          List.map
            (fun plan ->
              run_scenario ~steps ~collector ~seed ~scenario ~config ~plan ())
            (default_plans ~seed @ access_plans ~seed))
        (scenarios_for collector))
    collectors

let pp_outcome ppf o =
  let s = o.stats in
  Format.fprintf ppf
    "@[<v>%-12s %-16s x %-18s: %d steps, %d faults injected, %d OOM caught -> %s@,\
    \  ladder: %d collects, %d trims, %d grows (%d backoffs), %d relax-fp, %d \
     relax-black, %d hooks; %d overrides; %d commit faults, %d raised@,\
    \  access: %d reads (%d mark downgrades) / %d writes faulted; %d mutator reads, %d mutator \
     writes; %d pages decayed, %d alloc retries@]"
    o.collector o.scenario o.plan
    o.steps o.faults_injected o.ooms_caught
    (if clean o then "clean" else "VIOLATIONS")
    s.Cgc.Stats.ladder_collects s.Cgc.Stats.ladder_trims
    s.Cgc.Stats.ladder_expansions s.Cgc.Stats.ladder_backoffs s.Cgc.Stats.ladder_relax_first_page
    s.Cgc.Stats.ladder_relax_black s.Cgc.Stats.ladder_oom_hooks o.overrides
    s.Cgc.Stats.commit_faults s.Cgc.Stats.oom_raised s.Cgc.Stats.read_faults
    s.Cgc.Stats.mark_downgrades s.Cgc.Stats.write_faults o.mutator_read_faults
    o.mutator_write_faults s.Cgc.Stats.pages_decayed s.Cgc.Stats.decay_retries;
  if o.collector = "precise" then
    Format.fprintf ppf "@,  precise: %d exact collects, %d mark aborts, %d retries, %d stale roots%s"
      s.Cgc.Stats.precise_collections s.Cgc.Stats.precise_mark_aborts
      s.Cgc.Stats.precise_mark_retries s.Cgc.Stats.precise_stale_roots
      (match o.retention with
      | None -> ""
      | Some (p, c) -> Printf.sprintf "; retention %d exact <= %d conservative" p c);
  if not (clean o) then begin
    List.iter (fun e -> Format.fprintf ppf "@,  escaped: %s" e) o.escaped;
    List.iter (fun e -> Format.fprintf ppf "@,  invariant: %s" e) o.verify_issues;
    if o.post_fault_alloc_failures > 0 then
      Format.fprintf ppf "@,  %d post-fault allocations failed" o.post_fault_alloc_failures;
    if not o.recovered then Format.fprintf ppf "@,  did not recover once faults stopped";
    List.iter (fun e -> Format.fprintf ppf "@,  final: %s" e) o.final_issues
  end
