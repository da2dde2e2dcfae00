type cmp = Lt | Le | Gt | Ge | Eq | Ne
type sched = Static_block | Static_aligned of int | Static_cyclic | Dynamic of int
type loop_kind = Serial | Doall of sched

type cond =
  | Icond of cmp * Affine.t * Affine.t
  | Fcond of cmp * Fexpr.t * Fexpr.t

type t =
  | Assign of Reference.t * Fexpr.t
  | Sassign of string * Fexpr.t
  | For of loop
  | If of cond * t list * t list
  | Call of string * (string * Affine.t) list
  | Critical of critical
  | Reduce of reduce

and critical = { lock : string; cbody : t list; cloc : Loc.t }
and reduce = { rop : Fexpr.binop; rvar : string; rexpr : Fexpr.t; rloc : Loc.t }

and loop = {
  loop_id : int;
  var : string;
  lo : Bound.t;
  hi : Bound.t;
  step : int;
  kind : loop_kind;
  body : t list;
  loc : Loc.t;
}

let eval_cmp op a b =
  match op with
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b
  | Eq -> a = b
  | Ne -> a <> b

let[@inline] eval_fcmp op (a : float) (b : float) =
  match op with
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b
  | Eq -> a = b
  | Ne -> a <> b

let fcmp_at op stack d = eval_fcmp op stack.(d) stack.(d + 1)

let direct_reads = function
  | Assign (_, e) | Sassign (_, e) | Reduce { rexpr = e; _ } -> Fexpr.reads e
  | For _ | If _ | Call _ | Critical _ -> []

let direct_write = function
  | Assign (r, _) -> Some r
  | Sassign _ | For _ | If _ | Call _ | Critical _ | Reduce _ -> None

let rec fold f acc stmts =
  List.fold_left
    (fun acc s ->
      let acc = f acc s in
      match s with
      | Assign _ | Sassign _ | Call _ | Reduce _ -> acc
      | For l -> fold f acc l.body
      | If (_, t, e) -> fold f (fold f acc t) e
      | Critical c -> fold f acc c.cbody)
    acc stmts

let fold_refs f acc stmts =
  fold
    (fun acc s ->
      let acc =
        match direct_write s with
        | Some r -> f acc ~write:true r
        | None -> acc
      in
      let acc =
        match s with
        | If (Fcond (_, a, b), _, _) ->
            Fexpr.fold_reads (fun acc r -> f acc ~write:false r)
              (Fexpr.fold_reads (fun acc r -> f acc ~write:false r) acc a)
              b
        | Assign _ | Sassign _ | For _ | Call _ | Critical _ | Reduce _
        | If (Icond _, _, _) ->
            acc
      in
      List.fold_left (fun acc r -> f acc ~write:false r) acc (direct_reads s))
    acc stmts

let subst_cond c env =
  match c with
  | Icond (op, a, b) -> Icond (op, Affine.subst_env a env, Affine.subst_env b env)
  | Fcond (op, a, b) -> Fcond (op, Fexpr.subst_env a env, Fexpr.subst_env b env)

let rec subst_env s env =
  match s with
  | Assign (r, e) -> Assign (Reference.subst_env r env, Fexpr.subst_env e env)
  | Sassign (v, e) -> Sassign (v, Fexpr.subst_env e env)
  | For l ->
      (* the loop variable shadows any outer binding of the same name *)
      let env' = List.filter (fun (v, _) -> v <> l.var) env in
      For
        {
          l with
          lo = Bound.subst_env l.lo env';
          hi = Bound.subst_env l.hi env';
          body = List.map (fun s -> subst_env s env') l.body;
        }
  | If (c, t, e) ->
      If
        ( subst_cond c env,
          List.map (fun s -> subst_env s env) t,
          List.map (fun s -> subst_env s env) e )
  | Call (p, args) ->
      Call (p, List.map (fun (formal, a) -> (formal, Affine.subst_env a env)) args)
  | Critical c -> Critical { c with cbody = List.map (fun s -> subst_env s env) c.cbody }
  | Reduce r -> Reduce { r with rexpr = Fexpr.subst_env r.rexpr env }

let rec map_ref_ids f s =
  match s with
  | Assign (r, e) ->
      Assign (Reference.with_id r (f r.Reference.id), Fexpr.map_ref_ids f e)
  | Sassign (v, e) -> Sassign (v, Fexpr.map_ref_ids f e)
  | For l -> For { l with body = List.map (map_ref_ids f) l.body }
  | If (c, t, e) ->
      let c =
        match c with
        | Icond _ -> c
        | Fcond (op, a, b) -> Fcond (op, Fexpr.map_ref_ids f a, Fexpr.map_ref_ids f b)
      in
      If (c, List.map (map_ref_ids f) t, List.map (map_ref_ids f) e)
  | Call _ -> s
  | Critical c -> Critical { c with cbody = List.map (map_ref_ids f) c.cbody }
  | Reduce r -> Reduce { r with rexpr = Fexpr.map_ref_ids f r.rexpr }

let rec map_loop_ids f s =
  match s with
  | Assign _ | Sassign _ | Call _ | Reduce _ -> s
  | For l ->
      For { l with loop_id = f l.loop_id; body = List.map (map_loop_ids f) l.body }
  | If (c, t, e) -> If (c, List.map (map_loop_ids f) t, List.map (map_loop_ids f) e)
  | Critical c -> Critical { c with cbody = List.map (map_loop_ids f) c.cbody }

let direct_flops = function
  | Assign (_, e) | Sassign (_, e) -> Fexpr.flops e
  | Reduce { rexpr = e; _ } -> 1 + Fexpr.flops e
  | If (Fcond (_, a, b), _, _) -> 1 + Fexpr.flops a + Fexpr.flops b
  | For _ | If (Icond _, _, _) | Call _ | Critical _ -> 0

let string_of_cmp = function
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="

let pp_cond ppf = function
  | Icond (op, a, b) ->
      Format.fprintf ppf "%a %s %a" Affine.pp a (string_of_cmp op) Affine.pp b
  | Fcond (op, a, b) ->
      Format.fprintf ppf "%a %s %a" Fexpr.pp a (string_of_cmp op) Fexpr.pp b

let pp_kind ppf = function
  | Serial -> ()
  | Doall Static_block -> Format.pp_print_string ppf " doall(block)"
  | Doall (Static_aligned e) -> Format.fprintf ppf " doall(aligned:%d)" e
  | Doall Static_cyclic -> Format.pp_print_string ppf " doall(cyclic)"
  | Doall (Dynamic n) -> Format.fprintf ppf " doall(dynamic:%d)" n

let rec pp ppf s =
  match s with
  | Assign (r, e) -> Format.fprintf ppf "@[<2>%a =@ %a@]" Reference.pp r Fexpr.pp e
  | Sassign (v, e) -> Format.fprintf ppf "@[<2>$%s =@ %a@]" v Fexpr.pp e
  | For l ->
      Format.fprintf ppf "@[<v 2>for %s = %a to %a%s%a {@,%a@]@,}" l.var Bound.pp
        l.lo Bound.pp l.hi
        (if l.step = 1 then "" else Printf.sprintf " step %d" l.step)
        pp_kind l.kind pp_list l.body
  | If (c, t, []) ->
      Format.fprintf ppf "@[<v 2>if %a {@,%a@]@,}" pp_cond c pp_list t
  | If (c, t, e) ->
      Format.fprintf ppf "@[<v 2>if %a {@,%a@]@,} else {@,@[<v 2>  %a@]@,}" pp_cond
        c pp_list t pp_list e
  | Call (p, args) ->
      Format.fprintf ppf "call %s(%a)" p
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (fun ppf (formal, a) -> Format.fprintf ppf "%s=%a" formal Affine.pp a))
        args
  | Critical c ->
      Format.fprintf ppf "@[<v 2>critical(%s) {@,%a@]@,}" c.lock pp_list c.cbody
  | Reduce r ->
      Format.fprintf ppf "@[<2>reduce(%s) $%s =@ %a@]"
        (Fexpr.string_of_binop r.rop) r.rvar Fexpr.pp r.rexpr

and pp_list ppf stmts =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp ppf stmts
