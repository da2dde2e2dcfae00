open Ccdp_ir
open Ccdp_machine
open Ccdp_analysis

type result = {
  mode : Memsys.mode;
  cycles : int;
  stats : Stats.t;
  per_pe_cycles : int array;
  epochs : int;
  epoch_profile : (int * int * int) list;
  sys : Memsys.t;
}

(* Statement-level register memo as a flat linear-scan buffer keyed by
   canonical word address: scopes hold a handful of distinct elements, so a
   scan beats hashing — and resetting is one store. [memo_caps] bounds the
   population statically; growth is a safety net only. [mup] is the memo
   of the scope enclosing a nested loop's (see [link_memos]). Values come
   and go by slot ([src.(k)]), never as float arguments, which would be
   boxed. *)
type memo = {
  mutable mn : int;
  mutable mkeys : int array;
  mutable mvals : float array;
  mutable mup : memo option;
}

let memo_make cap =
  let cap = max 1 cap in
  { mn = 0; mkeys = Array.make cap 0; mvals = Array.make cap 0.0; mup = None }

(* a plain loop: a local recursive scan would be a closure allocated on
   every read *)
let memo_index m addr =
  let n = m.mn and keys = m.mkeys in
  let i = ref 0 in
  while !i < n && keys.(!i) <> addr do
    incr i
  done;
  if !i < n then !i else -1

let memo_add m addr src k =
  (if m.mn = Array.length m.mkeys then begin
     let cap = 2 * m.mn in
     let nk = Array.make cap 0 and nv = Array.make cap 0.0 in
     Array.blit m.mkeys 0 nk 0 m.mn;
     Array.blit m.mvals 0 nv 0 m.mn;
     m.mkeys <- nk;
     m.mvals <- nv
   end);
  m.mkeys.(m.mn) <- addr;
  m.mvals.(m.mn) <- src.(k);
  m.mn <- m.mn + 1

let memo_put m addr src k =
  let i = memo_index m addr in
  if i >= 0 then m.mvals.(i) <- src.(k) else memo_add m addr src k

(* A store inside a nested loop also refreshes the copies the enclosing
   scopes hold: their registers live across the nested loop, so without
   this an element they read before it would come back stale after it.
   Refreshing (rather than dropping) a copy keeps every hit a hit, so the
   timing is that of a compiler forwarding the store. *)
let rec memo_refresh up addr src k =
  match up with
  | None -> ()
  | Some m ->
      for i = 0 to m.mn - 1 do
        if m.mkeys.(i) = addr then m.mvals.(i) <- src.(k)
      done;
      memo_refresh m.mup addr src k

(* Point each nested loop's memo at its enclosing scope's: a loop
   iteration's or a serial epoch's (branch-condition scopes hold nothing
   across a loop). The nesting is static, so the links are set once. *)
let link_memos memos (xp : Xplan.t) =
  let rec stmts up body = Array.iter (stmt up) body
  and stmt up = function
    | Xplan.XFor l ->
        memos.(l.Xplan.l_memo).mup <- Some memos.(up);
        stmts l.Xplan.l_memo l.Xplan.l_body
    | Xplan.XIf (_, a, b) ->
        stmts up a;
        stmts up b
    | Xplan.XCritical { xc_body; _ } -> stmts up xc_body
    | Xplan.XAssign _ | Xplan.XSassign _ | Xplan.XReduce _ -> ()
  in
  let rec nodes ns =
    Array.iter
      (function
        | Xplan.NPar (_, l, _) -> stmts l.Xplan.l_memo l.Xplan.l_body
        | Xplan.NSer (_, body, m) -> stmts m body
        | Xplan.NLoop { s_body; _ } -> nodes s_body
        | Xplan.NBranch (_, _, a, b) ->
            nodes a;
            nodes b)
      ns
  in
  nodes xp.Xplan.nodes

(* Per-shard mutable evaluation state: everything the recursive evaluator
   scribbles on besides the per-PE frames and the memory system itself.
   One instance per domain shard, so concurrent shards never share a
   scratch buffer; the serial run uses exactly one (no extra allocation
   against the Gc gate). *)
type scratch = {
  s_ridx : int array array;  (** per read occurrence: subscript buffer *)
  s_widx : int array array;
  s_memos : memo array;
  s_sp_lines : int array array;  (** per loop uid: last line issued per sp *)
  s_stack : float array;
      (** expression values: an expression evaluates into slot [d], its
          right operands from [d + 1] up ({!Xplan.t.stack_depth} slots) *)
}

(* The closure family built over one scratch: the recursive evaluator
   entry points [exec_parallel] and the serial paths dispatch through. *)
type engine = {
  e_range : int -> Xplan.loop -> first:int -> last:int -> step:int -> unit;
  e_loop : int -> Xplan.loop -> unit;
  e_stmts : int -> memo -> Xplan.stmt array -> unit;
  e_cond : int -> memo -> Xplan.cond -> bool;
  e_memos : memo array;
}

let run cfg ?(oracle = false) ?(sabotage = Memsys.No_fault) ?pool
    (program : Program.t) ~plan ~mode ?init () =
  let sys = Memsys.create cfg ~oracle ~sabotage program ~plan mode in
  (match init with Some f -> f sys | None -> ());
  let ep = Epoch.partition program.Program.main in
  let xp = Xplan.lower program ep plan in
  let n = cfg.Config.n_pes in
  (* Intra-run sharding: DOALL epochs execute their PEs in [nshards]
     domain shards when the memory system buffers all cross-PE effects to
     the barrier (Memsys.shardable). One shard means today's serial walk,
     closure-for-closure. *)
  let nshards =
    match pool with
    | Some p when Memsys.shardable sys ->
        max 1 (min (Ccdp_exec.Pool.jobs p) n)
    | _ -> 1
  in
  (* per-PE frames: induction variables / parameters (ints) and
     task-private scalars (floats), with bound flags replacing the
     string-keyed environments' membership *)
  let nint = max 1 (Xplan.n_int xp) and nflt = max 1 (Xplan.n_flt xp) in
  let iframe = Array.init n (fun _ -> Array.make nint 0) in
  let ibound = Array.init n (fun _ -> Array.make nint false) in
  let fframe = Array.init n (fun _ -> Array.make nflt 0.0) in
  let fbound = Array.init n (fun _ -> Array.make nflt false) in
  Array.iter
    (fun (slot, v) ->
      for pe = 0 to n - 1 do
        iframe.(pe).(slot) <- v;
        ibound.(pe).(slot) <- true
      done)
    xp.Xplan.params;
  (* per static access: prepared memory-system access, shared by every
     shard (read-only after preparation) *)
  let raccs = Array.map (Memsys.prepare_read sys) xp.Xplan.reads in
  let waccs = Array.map (Memsys.prepare_write sys) xp.Xplan.writes in
  let scratch_of (r : Reference.t) = Array.make (Array.length r.subs) 0 in
  let make_scratch () =
    let memos = Array.map memo_make xp.Xplan.memo_caps in
    link_memos memos xp;
    {
      s_ridx = Array.map scratch_of xp.Xplan.reads;
      s_widx = Array.map scratch_of xp.Xplan.writes;
      s_memos = memos;
      s_sp_lines =
        Array.map (fun k -> Array.make (max 1 k) min_int) xp.Xplan.sp_counts;
      s_stack = Array.make xp.Xplan.stack_depth 0.0;
    }
  in
  let epochs_executed = ref 0 in
  let profile : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let record_epoch id dt =
    let n, c = match Hashtbl.find_opt profile id with Some x -> x | None -> (0, 0) in
    Hashtbl.replace profile id (n + 1, c + dt)
  in
  let unbound_var s =
    invalid_arg ("Interp: unbound variable " ^ xp.Xplan.lay.Xplan.int_names.(s))
  in
  let unbound_scalar s =
    invalid_arg ("Interp: unbound scalar $" ^ xp.Xplan.lay.Xplan.flt_names.(s))
  in
  let eval_aff pe (a : Xplan.aff) =
    let fr = iframe.(pe) and bd = ibound.(pe) in
    let coefs = a.Xplan.acoefs and slots = a.Xplan.aslots in
    let r = ref a.Xplan.abase in
    for k = 0 to Array.length coefs - 1 do
      let s = slots.(k) in
      if not bd.(s) then unbound_var s;
      r := !r + (coefs.(k) * fr.(s))
    done;
    !r
  in
  let eval_bound pe = function
    | Xplan.Fin a -> eval_aff pe a
    | Xplan.Unk -> invalid_arg "Bound.eval_exec: unknown bound is not executable"
  in
  let make_engine sc =
    let ridx = sc.s_ridx
    and widx = sc.s_widx
    and memos = sc.s_memos
    and sp_lines = sc.s_sp_lines
    and stack = sc.s_stack in
    (* evaluate an occurrence's subscripts into its scratch buffer *)
    let eval_subs bufs pe (xr : Xplan.xref) =
      let buf = bufs.(xr.Xplan.xacc) in
      let subs = xr.Xplan.xsubs in
      for d = 0 to Array.length subs - 1 do
        buf.(d) <- eval_aff pe subs.(d)
      done;
      buf
    in
    (* evaluate [e] into [stack.(d)] *)
    let rec eval_f pe memo (e : Xplan.fexpr) d =
      match e with
      | Xplan.XConst c -> stack.(d) <- c
      | Xplan.XIvar s ->
          if not ibound.(pe).(s) then unbound_var s;
          stack.(d) <- float_of_int iframe.(pe).(s)
      | Xplan.XSvar s ->
          if not fbound.(pe).(s) then unbound_scalar s;
          stack.(d) <- fframe.(pe).(s)
      | Xplan.XRead xr ->
          (* [memo] models statement-level register reuse: a compiler loads
             each distinct element once per statement, further occurrences
             read the register for free *)
          let idx = eval_subs ridx pe xr in
          let acc = raccs.(xr.Xplan.xacc) in
          let addr = Memsys.access_addr sys acc ~pe ~idx in
          let i = memo_index memo addr in
          if i >= 0 then stack.(d) <- memo.mvals.(i)
          else begin
            Memsys.read_c sys ~pe acc ~idx ~addr;
            stack.(d) <- (Memsys.reg sys ~pe).(0);
            memo_add memo addr stack d
          end
      | Xplan.XUnop (op, a) ->
          eval_f pe memo a d;
          Fexpr.unop_at op stack d
      | Xplan.XBinop (op, a, b) ->
          eval_f pe memo a d;
          eval_f pe memo b (d + 1);
          Fexpr.binop_at op stack d
    in
    let eval_cond pe memo = function
      | Xplan.XIcond (op, a, b) ->
          Stmt.eval_cmp op (eval_aff pe a) (eval_aff pe b)
      | Xplan.XFcond (op, a, b) ->
          Memsys.charge sys ~pe cfg.Config.flop;
          eval_f pe memo a 0;
          eval_f pe memo b 1;
          Stmt.fcmp_at op stack 0
    in
    (* Issue one software-pipelined prefetch for a future iteration of one
       reference. With [every > 1] the compiler strip-mined the issue to one
       prefetch instruction per cache line (self-spatial elimination): the
       runtime realizes that soundly as a line-crossing test against the
       previously issued line, so boundary and phase effects can never leave
       a line unissued. *)
    let sp_issue pe (l : Xplan.loop) (sp : Xplan.sp) k target_iter hi =
      if (l.Xplan.l_step > 0 && target_iter <= hi)
         || (l.Xplan.l_step < 0 && target_iter >= hi)
      then begin
        let var = l.Xplan.l_var in
        let sv = iframe.(pe).(var) and sb = ibound.(pe).(var) in
        iframe.(pe).(var) <- target_iter;
        ibound.(pe).(var) <- true;
        let idx = eval_subs ridx pe sp.Xplan.sp_ref in
        iframe.(pe).(var) <- sv;
        ibound.(pe).(var) <- sb;
        let acc = raccs.(sp.Xplan.sp_ref.Xplan.xacc) in
        let addr = Memsys.access_addr sys acc ~pe ~idx in
        if sp.Xplan.sp_every <= 1 then
          Memsys.pf_issue_c ~skip_cached:sp.Xplan.sp_clean sys ~pe acc ~addr
        else begin
          let line = addr / cfg.Config.line_words in
          let lines = sp_lines.(l.Xplan.l_uid) in
          if line <> lines.(k) then begin
            lines.(k) <- line;
            Memsys.pf_issue_c ~skip_cached:sp.Xplan.sp_clean sys ~pe acc ~addr
          end
        end
      end
    in
    (* add one point's member addresses to the PE's pending vector get;
       every member resolves through the group's first access *)
    let vector_collect pe (vec : Xplan.vec) acc =
      let members = vec.Xplan.v_members in
      for m = 0 to Array.length members - 1 do
        let idx = eval_subs ridx pe members.(m) in
        Memsys.vget_add sys ~pe ~addr:(Memsys.access_addr sys acc ~pe ~idx)
      done
    in
    (* issue the vector prefetches attached to a loop, for the given range *)
    let vector_issue pe (l : Xplan.loop) ~first ~last ~step =
      let var = l.Xplan.l_var in
      for vi = 0 to Array.length l.Xplan.l_vecs - 1 do
        let vec = l.Xplan.l_vecs.(vi) in
        let acc = raccs.(vec.Xplan.v_members.(0).Xplan.xacc) in
        let sv = iframe.(pe).(var) and sb = ibound.(pe).(var) in
        let v = ref first in
        while if step > 0 then !v <= last else !v >= last do
          iframe.(pe).(var) <- !v;
          ibound.(pe).(var) <- true;
          (match vec.Xplan.v_inner with
          | None -> vector_collect pe vec acc
          | Some il ->
              let ifirst = eval_bound pe il.Xplan.l_lo in
              let ilast = eval_bound pe il.Xplan.l_hi in
              let ivar = il.Xplan.l_var and istep = il.Xplan.l_step in
              let isv = iframe.(pe).(ivar) and isb = ibound.(pe).(ivar) in
              let w = ref ifirst in
              while if istep > 0 then !w <= ilast else !w >= ilast do
                iframe.(pe).(ivar) <- !w;
                ibound.(pe).(ivar) <- true;
                vector_collect pe vec acc;
                w := !w + istep
              done;
              iframe.(pe).(ivar) <- isv;
              ibound.(pe).(ivar) <- isb);
          v := !v + step
        done;
        iframe.(pe).(var) <- sv;
        ibound.(pe).(var) <- sb;
        Memsys.vget_issue_c ~skip_cached:vec.Xplan.v_clean sys ~pe acc
      done
    in
    (* execute the iterations [first..last..step] of loop [l] on [pe] *)
    let rec exec_range pe (l : Xplan.loop) ~first ~last ~step =
      vector_issue pe l ~first ~last ~step;
      let sps = l.Xplan.l_sps in
      let lines = sp_lines.(l.Xplan.l_uid) in
      Array.fill lines 0 (Array.length lines) min_int;
      (* software-pipelining prologue: prefetch the first d iterations *)
      for k = 0 to Array.length sps - 1 do
        let sp = sps.(k) in
        for j = 0 to sp.Xplan.sp_dist - 1 do
          sp_issue pe l sp k (first + (j * step)) last
        done
      done;
      let var = l.Xplan.l_var in
      let sv = iframe.(pe).(var) and sb = ibound.(pe).(var) in
      let memo = memos.(l.Xplan.l_memo) in
      let body = l.Xplan.l_body in
      let v = ref first in
      while if step > 0 then !v <= last else !v >= last do
        iframe.(pe).(var) <- !v;
        ibound.(pe).(var) <- true;
        Memsys.charge sys ~pe cfg.Config.loop_overhead;
        for k = 0 to Array.length sps - 1 do
          let sp = sps.(k) in
          sp_issue pe l sp k (!v + (sp.Xplan.sp_dist * step)) last
        done;
        (* fresh register file per iteration: scalar replacement is only
           valid within a single iteration of the innermost loop *)
        memo.mn <- 0;
        exec_stmts pe memo body;
        v := !v + step
      done;
      iframe.(pe).(var) <- sv;
      ibound.(pe).(var) <- sb

    and exec_loop pe (l : Xplan.loop) =
      let first = eval_bound pe l.Xplan.l_lo in
      let last = eval_bound pe l.Xplan.l_hi in
      exec_range pe l ~first ~last ~step:l.Xplan.l_step

    and exec_stmts pe memo (body : Xplan.stmt array) =
      for i = 0 to Array.length body - 1 do
        exec_stmt pe memo body.(i)
      done

    (* a statement's expression always evaluates into slot 0 *)
    and exec_stmt pe memo (s : Xplan.stmt) =
      match s with
      | Xplan.XAssign { xflops; dst; src } ->
          Memsys.charge sys ~pe (xflops * cfg.Config.flop);
          eval_f pe memo src 0;
          let idx = eval_subs widx pe dst in
          let wa = waccs.(dst.Xplan.xacc) in
          let addr = Memsys.write_addr sys wa ~pe ~idx in
          (Memsys.reg sys ~pe).(0) <- stack.(0);
          Memsys.write_c sys ~pe wa ~addr;
          (* keep the register copies coherent with the store *)
          memo_put memo addr stack 0;
          memo_refresh memo.mup addr stack 0
      | Xplan.XSassign { xflops; slot; src } ->
          Memsys.charge sys ~pe (xflops * cfg.Config.flop);
          eval_f pe memo src 0;
          fframe.(pe).(slot) <- stack.(0);
          fbound.(pe).(slot) <- true
      | Xplan.XIf (c, tb, eb) ->
          if eval_cond pe memo c then exec_stmts pe memo tb
          else exec_stmts pe memo eb
      | Xplan.XFor l -> exec_loop pe l
      | Xplan.XCritical { xc_lock; xc_body } ->
          Memsys.lock_acquire sys ~pe xc_lock;
          (* the acquire is a coherence frontier: registers holding shared
             values cannot be trusted past it *)
          memo.mn <- 0;
          exec_stmts pe memo xc_body;
          Memsys.lock_release sys ~pe xc_lock
      | Xplan.XReduce { xflops; slot; rop; src } ->
          Memsys.charge sys ~pe (xflops * cfg.Config.flop);
          eval_f pe memo src 0;
          let fr = fframe.(pe) and fb = fbound.(pe) in
          if fb.(slot) then begin
            (* partial rop value, with the partial as the left operand *)
            stack.(1) <- stack.(0);
            stack.(0) <- fr.(slot);
            Fexpr.binop_at rop stack 0;
            fr.(slot) <- stack.(0)
          end
          else begin
            (* first contribution seeds the partial *)
            fr.(slot) <- stack.(0);
            fb.(slot) <- true
          end
    in
    {
      e_range = exec_range;
      e_loop = exec_loop;
      e_stmts = exec_stmts;
      e_cond = eval_cond;
      e_memos = memos;
    }
  in
  (* shard 0's engine is the main engine: Seq runs, serial epochs, branch
     conditions, dynamic scheduling and every serial fallback go through
     it, so a one-shard run is exactly the pre-shard interpreter *)
  let engines = Array.init nshards (fun _ -> make_engine (make_scratch ())) in
  let main = engines.(0) in
  let exec_parallel id (l : Xplan.loop) (reds : Xplan.xred array) =
    incr epochs_executed;
    let t0 = Machine.time (Memsys.machine sys) in
    (* reduction prologue: capture the incoming binding (PE0's view) and
       unbind the scalar on every PE — each PE's first contribution seeds
       its partial, so no identity element is ever materialized *)
    let incoming =
      Array.map
        (fun (rd : Xplan.xred) ->
          let s = rd.Xplan.rd_slot in
          let inc = if fbound.(0).(s) then Some fframe.(0).(s) else None in
          for pe = 0 to n - 1 do
            fbound.(pe).(s) <- false
          done;
          inc)
        reds
    in
    if mode = Memsys.Seq then main.e_loop 0 l
    else begin
      let first = eval_bound 0 l.Xplan.l_lo in
      let last = eval_bound 0 l.Xplan.l_hi in
      (match l.Xplan.l_src.Stmt.kind with
      | Stmt.Serial -> assert false
      | Stmt.Doall
          ((Stmt.Static_block | Stmt.Static_aligned _ | Stmt.Static_cyclic) as
           sched) ->
          let triplet pe =
            Ccdp_craft.Loop_sched.triplet_of_pe sched ~n_pes:n ~pe ~lo:first
              ~hi:last ~step:l.Xplan.l_step
          in
          if nshards > 1 then begin
            (* Collect the PEs with iterations, then hand each shard one
               contiguous slice of them: balanced (equal active counts)
               yet cache-friendly — neighbouring PEs' records live on the
               same CPU cache lines, so splitting them across domains
               would make every clock/stats bump a coherence miss. Any
               assignment yields the same simulated state (per-PE state
               is disjoint, shared effects barrier-merge PE-major); the
               choice is purely a host-performance one. *)
            let actives = Array.make n 0 in
            let m = ref 0 in
            for pe = 0 to n - 1 do
              if triplet pe <> None then begin
                actives.(!m) <- pe;
                incr m
              end
            done;
            let m = !m in
            let q = m / nshards and r = m mod nshards in
            ignore
              (Ccdp_exec.Pool.map_shards (Option.get pool) ~shards:nshards
                 (fun s ->
                   let eng = engines.(s) in
                   let lo = (s * q) + min s r in
                   let hi = lo + q + (if s < r then 1 else 0) - 1 in
                   for k = lo to hi do
                     let pe = actives.(k) in
                     match triplet pe with
                     | None -> ()
                     | Some (f, la, st) ->
                         eng.e_range pe l ~first:f ~last:la ~step:st
                   done))
          end
          else
            for pe = 0 to n - 1 do
              match triplet pe with
              | None -> ()
              | Some (f, la, s) -> main.e_range pe l ~first:f ~last:la ~step:s
            done
      | Stmt.Doall (Stmt.Dynamic chunk) ->
          (* greedy self-scheduling reads every PE clock before each
             chunk — inherently serial, always on the main engine *)
          let chunks =
            Ccdp_craft.Loop_sched.dynamic_chunks ~chunk ~lo:first ~hi:last
              ~step:l.Xplan.l_step
          in
          List.iter
            (fun (f, la, s) ->
              (* greedy self-scheduling: next chunk to the least-loaded PE *)
              let best = ref 0 in
              for pe = 1 to n - 1 do
                if Memsys.clock sys ~pe < Memsys.clock sys ~pe:!best then best := pe
              done;
              main.e_range !best l ~first:f ~last:la ~step:s)
            chunks);
      ()
    end;
    (* reduction merge: fold the per-PE partials PE-major onto the
       incoming value and broadcast the result — the combining happens in
       the barrier's combining tree, so it charges no PE cycles *)
    Array.iteri
      (fun k (rd : Xplan.xred) ->
        let s = rd.Xplan.rd_slot in
        let acc = ref incoming.(k) in
        for pe = 0 to n - 1 do
          if fbound.(pe).(s) then
            acc :=
              Some
                (match !acc with
                | Some x -> Fexpr.apply_binop rd.Xplan.rd_op x fframe.(pe).(s)
                | None -> fframe.(pe).(s))
        done;
        match !acc with
        | Some v ->
            for pe = 0 to n - 1 do
              fframe.(pe).(s) <- v;
              fbound.(pe).(s) <- true
            done
        | None -> ())
      reds;
    Memsys.epoch_boundary sys;
    record_epoch id (Machine.time (Memsys.machine sys) - t0)
  in
  let exec_serial_epoch id (stmts : Xplan.stmt array) memo_id =
    incr epochs_executed;
    let t0 = Machine.time (Memsys.machine sys) in
    let memo = main.e_memos.(memo_id) in
    memo.mn <- 0;
    main.e_stmts 0 memo stmts;
    Memsys.epoch_boundary sys;
    record_epoch id (Machine.time (Memsys.machine sys) - t0)
  in
  let rec exec_nodes nodes =
    Array.iter
      (fun node ->
        match node with
        | Xplan.NPar (id, l, reds) -> exec_parallel id l reds
        | Xplan.NSer (id, stmts, memo_id) -> exec_serial_epoch id stmts memo_id
        | Xplan.NLoop { s_var; s_lo; s_hi; s_step; s_body } ->
            let first = eval_bound 0 s_lo in
            let last = eval_bound 0 s_hi in
            let v = ref first in
            let continue () = if s_step > 0 then !v <= last else !v >= last in
            while continue () do
              for pe = 0 to n - 1 do
                iframe.(pe).(s_var) <- !v;
                ibound.(pe).(s_var) <- true
              done;
              exec_nodes s_body;
              v := !v + s_step
            done
        | Xplan.NBranch (c, memo_id, a, b) ->
            let memo = main.e_memos.(memo_id) in
            memo.mn <- 0;
            if main.e_cond 0 memo c then exec_nodes a else exec_nodes b)
      nodes
  in
  exec_nodes xp.Xplan.nodes;
  let mach = Memsys.machine sys in
  {
    mode;
    cycles = Machine.time mach;
    stats = Machine.total_stats mach;
    per_pe_cycles = Array.init n (fun pe -> (Machine.pe mach pe).Pe.clock);
    epochs = !epochs_executed;
    epoch_profile =
      Hashtbl.fold (fun id (n, c) acc -> (id, n, c) :: acc) profile []
      |> List.sort compare;
    sys;
  }

let pp_profile ppf (ep : Epoch.t) r =
  let descr : (int, string) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (id, e) ->
      Hashtbl.replace descr id
        (match e with
        | Epoch.Par l -> Printf.sprintf "parallel doall %s" l.Stmt.var
        | Epoch.Ser ss -> Printf.sprintf "serial (%d stmts)" (List.length ss)))
    (Epoch.all ep);
  let total = max 1 r.cycles in
  Format.fprintf ppf "@[<v>epoch profile (%d machine cycles total):@," r.cycles;
  List.iter
    (fun (id, n, c) ->
      Format.fprintf ppf "  epoch %d %-24s x%-5d %9d cycles (%4.1f%%)@," id
        (match Hashtbl.find_opt descr id with Some d -> d | None -> "?")
        n c
        (100.0 *. float_of_int c /. float_of_int total))
    r.epoch_profile;
  Format.fprintf ppf "@]"

let pp_result ppf r =
  Format.fprintf ppf "@[<v>%s: %d cycles over %d epoch executions@,%a@]"
    (Memsys.mode_name r.mode) r.cycles r.epochs Stats.pp r.stats
