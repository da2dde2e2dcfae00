open Ccdp_ir

type t = {
  ref_ : Reference.t;
  write : bool;
  epoch : int;
  outer_serial : Stmt.loop list;
  loops : Stmt.loop list;
  par_loop : Stmt.loop option;
  innermost : Stmt.loop option;
  in_innermost : bool;
  if_depth : int;
  if_in_loop : bool;
  loop_has_if : bool;
  stmts_before : Stmt.t list;
  lock : string option;
}

type ctx = {
  c_epoch : int;
  c_outer : Stmt.loop list;  (** outermost first *)
  c_loops : Stmt.loop list;  (** outermost first *)
  c_par : Stmt.loop option;
  c_ifs : int;
  c_ifs_in_loop : int;  (** ifs crossed since the innermost loop entry *)
  c_before : Stmt.t list;
  c_lock : string option;  (** innermost enclosing critical section's lock *)
}

let collect (ep : Epoch.t) =
  let acc = ref [] in
  let innermost_of loops =
    match List.rev loops with [] -> None | l :: _ -> Some l
  in
  let emit ctx ~write r =
    let loops = ctx.c_loops in
    let innermost = innermost_of loops in
    let in_innermost =
      match innermost with
      | None -> false
      | Some l ->
          not (Stmt.exists (function Stmt.For _ -> true | _ -> false) l.Stmt.body)
    in
    let loop_has_if =
      match innermost with
      | None -> false
      | Some l -> Stmt.exists (function Stmt.If _ -> true | _ -> false) l.Stmt.body
    in
    acc :=
      {
        ref_ = r;
        write;
        epoch = ctx.c_epoch;
        outer_serial = ctx.c_outer;
        loops;
        par_loop = ctx.c_par;
        innermost;
        in_innermost;
        if_depth = ctx.c_ifs;
        if_in_loop = ctx.c_ifs_in_loop > 0;
        loop_has_if;
        stmts_before = ctx.c_before;
        lock = ctx.c_lock;
      }
      :: !acc
  in
  let rec walk_stmts ctx stmts =
    ignore
      (List.fold_left
         (fun before s ->
           let ctx = { ctx with c_before = before } in
           (match s with
           | Stmt.Assign (r, e) ->
               List.iter (fun r -> emit ctx ~write:false r) (Fexpr.reads e);
               emit ctx ~write:true r
           | Stmt.Sassign (_, e) ->
               List.iter (fun r -> emit ctx ~write:false r) (Fexpr.reads e)
           | Stmt.For l ->
               walk_stmts
                 {
                   ctx with
                   c_loops = ctx.c_loops @ [ l ];
                   c_ifs_in_loop = 0;
                   c_before = [];
                 }
                 l.Stmt.body
           | Stmt.If (c, tb, eb) ->
               (match c with
               | Stmt.Fcond (_, a, b) ->
                   List.iter (fun r -> emit ctx ~write:false r) (Fexpr.reads a);
                   List.iter (fun r -> emit ctx ~write:false r) (Fexpr.reads b)
               | Stmt.Icond _ -> ());
               let ctx' =
                 {
                   ctx with
                   c_ifs = ctx.c_ifs + 1;
                   c_ifs_in_loop = ctx.c_ifs_in_loop + 1;
                   c_before = [];
                 }
               in
               walk_stmts ctx' tb;
               walk_stmts ctx' eb
           | Stmt.Critical c ->
               (* acquire invalidates the moved-back-prefetch window: a
                  prefetch issued before the acquire could fetch a value the
                  lock holder is still writing *)
               walk_stmts
                 { ctx with c_lock = Some c.Stmt.lock; c_before = [] }
                 c.Stmt.cbody
           | Stmt.Reduce r ->
               List.iter (fun r -> emit ctx ~write:false r)
                 (Fexpr.reads r.Stmt.rexpr)
           | Stmt.Call _ ->
               invalid_arg "Ref_info.collect: program contains calls; inline first");
           s :: before)
         ctx.c_before stmts)
  in
  let rec walk_nodes outer nodes =
    List.iter
      (fun node ->
        match node with
        | Epoch.E (id, Epoch.Par l) ->
            walk_stmts
              {
                c_epoch = id;
                c_outer = outer;
                c_loops = [ l ];
                c_par = Some l;
                c_ifs = 0;
                c_ifs_in_loop = 0;
                c_before = [];
                c_lock = None;
              }
              l.Stmt.body
        | Epoch.E (id, Epoch.Ser stmts) ->
            walk_stmts
              {
                c_epoch = id;
                c_outer = outer;
                c_loops = [];
                c_par = None;
                c_ifs = 0;
                c_ifs_in_loop = 0;
                c_before = [];
                c_lock = None;
              }
              stmts
        | Epoch.Loop (l, body) -> walk_nodes (outer @ [ l ]) body
        | Epoch.Branch (_, a, b) ->
            walk_nodes outer a;
            walk_nodes outer b)
      nodes
  in
  walk_nodes [] ep.Epoch.nodes;
  List.rev !acc

let index infos =
  let tbl = Hashtbl.create (List.length infos) in
  List.iter (fun i -> Hashtbl.replace tbl i.ref_.Reference.id i) infos;
  tbl

let scope_loops i = i.outer_serial @ i.loops
