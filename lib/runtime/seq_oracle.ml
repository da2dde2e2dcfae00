open Ccdp_ir
open Ccdp_analysis

(* One static access on the one-PE image. There every array lies in PE 0's
   window in its owner-local layout with local index = index, so an
   in-bounds element sits at [base + sum strides.(d) * idx.(d)]; anything
   else takes the general resolution, exactly as the timed run does. *)
type access = {
  h : Addr_map.handle;
  base : int;
  strides : int array;
  dims : int array;
  idx : int array;  (** subscript scratch *)
}

(* the program is validated ([Builder.finish]), so every reference has
   its array's rank *)
let access_of map (r : Reference.t) =
  let name = r.Reference.array_name in
  let lay = Addr_map.layout map name in
  {
    h = Addr_map.handle map name;
    base = Addr_map.base map name;
    strides = Ccdp_craft.Layout.strides lay;
    dims = lay.Ccdp_craft.Layout.decl.Array_decl.dims;
    idx = Array.make (Array.length r.Reference.subs) 0;
  }

let run cfg (program : Program.t) ?init () =
  let sys = Memsys.image cfg program in
  (match init with Some f -> f sys | None -> ());
  let mem = Memsys.words sys in
  let xp =
    Xplan.lower program (Epoch.partition program.Program.main) (Annot.empty ())
  in
  let nint = max 1 (Xplan.n_int xp) and nflt = max 1 (Xplan.n_flt xp) in
  let iframe = Array.make nint 0 and ibound = Array.make nint false in
  let fframe = Array.make nflt 0.0 and fbound = Array.make nflt false in
  Array.iter
    (fun (slot, v) ->
      iframe.(slot) <- v;
      ibound.(slot) <- true)
    xp.Xplan.params;
  let map = Memsys.map sys in
  let raccs = Array.map (access_of map) xp.Xplan.reads in
  let waccs = Array.map (access_of map) xp.Xplan.writes in
  (* word for word the timed run's errors: verifying a program fails
     exactly where running it does *)
  let unbound_var s =
    invalid_arg ("Interp: unbound variable " ^ xp.Xplan.lay.Xplan.int_names.(s))
  in
  let unbound_scalar s =
    invalid_arg ("Interp: unbound scalar $" ^ xp.Xplan.lay.Xplan.flt_names.(s))
  in
  let eval_aff (a : Xplan.aff) =
    let coefs = a.Xplan.acoefs and slots = a.Xplan.aslots in
    let r = ref a.Xplan.abase in
    for k = 0 to Array.length coefs - 1 do
      let s = slots.(k) in
      if not ibound.(s) then unbound_var s;
      r := !r + (coefs.(k) * iframe.(s))
    done;
    !r
  in
  let eval_bound = function
    | Xplan.Fin a -> eval_aff a
    | Xplan.Unk -> invalid_arg "Bound.eval_exec: unknown bound is not executable"
  in
  (* the address a one-PE run resolves for an occurrence *)
  let addr_of accs (xr : Xplan.xref) =
    let a = accs.(xr.Xplan.xacc) in
    let subs = xr.Xplan.xsubs and idx = a.idx in
    let addr = ref a.base and inside = ref true in
    for d = 0 to Array.length subs - 1 do
      let i = eval_aff subs.(d) in
      idx.(d) <- i;
      if i < 0 || i >= a.dims.(d) then inside := false;
      addr := !addr + (a.strides.(d) * i)
    done;
    if !inside then !addr else Addr_map.resolve_h a.h ~pe:0 idx
  in
  (* Values move through a float stack, as in the timed engine: a float
     returned from [eval_f] would be boxed on every read and operator.
     No register memo: on one PE every copy the timed run keeps — memo,
     cache line, shadow — equals the memory word, since every store
     refreshes the register copies of its own and all enclosing scopes. *)
  let stack = Array.make xp.Xplan.stack_depth 0.0 in
  (* evaluate [e] into [stack.(d)] *)
  let rec eval_f (e : Xplan.fexpr) d =
    match e with
    | Xplan.XConst c -> stack.(d) <- c
    | Xplan.XIvar s ->
        if not ibound.(s) then unbound_var s;
        stack.(d) <- float_of_int iframe.(s)
    | Xplan.XSvar s ->
        if not fbound.(s) then unbound_scalar s;
        stack.(d) <- fframe.(s)
    | Xplan.XRead xr -> stack.(d) <- mem.(addr_of raccs xr)
    | Xplan.XUnop (op, a) ->
        eval_f a d;
        Fexpr.unop_at op stack d
    | Xplan.XBinop (op, a, b) ->
        eval_f a d;
        eval_f b (d + 1);
        Fexpr.binop_at op stack d
  in
  let eval_cond = function
    | Xplan.XIcond (op, a, b) -> Stmt.eval_cmp op (eval_aff a) (eval_aff b)
    | Xplan.XFcond (op, a, b) ->
        eval_f a 0;
        eval_f b 1;
        Stmt.fcmp_at op stack 0
  in
  let rec exec_stmt (s : Xplan.stmt) =
    match s with
    | Xplan.XAssign { dst; src; _ } ->
        eval_f src 0;
        mem.(addr_of waccs dst) <- stack.(0)
    | Xplan.XSassign { slot; src; _ } ->
        eval_f src 0;
        fframe.(slot) <- stack.(0);
        fbound.(slot) <- true
    | Xplan.XIf (c, tb, eb) ->
        if eval_cond c then Array.iter exec_stmt tb else Array.iter exec_stmt eb
    | Xplan.XFor l -> exec_loop l
    | Xplan.XCritical { xc_body; _ } -> Array.iter exec_stmt xc_body
    | Xplan.XReduce { slot; rop; src; _ } ->
        eval_f src 0;
        if fbound.(slot) then begin
          stack.(1) <- stack.(0);
          stack.(0) <- fframe.(slot);
          Fexpr.binop_at rop stack 0;
          fframe.(slot) <- stack.(0)
        end
        else begin
          fframe.(slot) <- stack.(0);
          fbound.(slot) <- true
        end
  and exec_loop (l : Xplan.loop) =
    let first = eval_bound l.Xplan.l_lo in
    let last = eval_bound l.Xplan.l_hi in
    let var = l.Xplan.l_var and step = l.Xplan.l_step in
    let sv = iframe.(var) and sb = ibound.(var) in
    let v = ref first in
    while if step > 0 then !v <= last else !v >= last do
      iframe.(var) <- !v;
      ibound.(var) <- true;
      Array.iter exec_stmt l.Xplan.l_body;
      v := !v + step
    done;
    iframe.(var) <- sv;
    ibound.(var) <- sb
  in
  (* A DOALL's reductions as the timed run merges them on one PE: the
     incoming binding is set aside, the first contribution seeds the
     partial, and the barrier folds the partial onto the incoming value
     (incoming op partial, not a running left fold). *)
  let exec_parallel (l : Xplan.loop) (reds : Xplan.xred array) =
    let incoming =
      Array.map
        (fun (rd : Xplan.xred) ->
          let s = rd.Xplan.rd_slot in
          let inc = if fbound.(s) then Some fframe.(s) else None in
          fbound.(s) <- false;
          inc)
        reds
    in
    exec_loop l;
    Array.iteri
      (fun k (rd : Xplan.xred) ->
        let s = rd.Xplan.rd_slot in
        let acc =
          if not fbound.(s) then incoming.(k)
          else
            match incoming.(k) with
            | Some x -> Some (Fexpr.apply_binop rd.Xplan.rd_op x fframe.(s))
            | None -> Some fframe.(s)
        in
        match acc with
        | Some v ->
            fframe.(s) <- v;
            fbound.(s) <- true
        | None -> ())
      reds
  in
  let rec exec_nodes nodes =
    Array.iter
      (fun node ->
        match node with
        | Xplan.NPar (_, l, reds) -> exec_parallel l reds
        | Xplan.NSer (_, stmts, _) -> Array.iter exec_stmt stmts
        | Xplan.NLoop { s_var; s_lo; s_hi; s_step; s_body } ->
            let first = eval_bound s_lo in
            let last = eval_bound s_hi in
            let v = ref first in
            while if s_step > 0 then !v <= last else !v >= last do
              iframe.(s_var) <- !v;
              ibound.(s_var) <- true;
              exec_nodes s_body;
              v := !v + s_step
            done
        | Xplan.NBranch (c, _, a, b) ->
            if eval_cond c then exec_nodes a else exec_nodes b)
      nodes
  in
  exec_nodes xp.Xplan.nodes;
  sys
