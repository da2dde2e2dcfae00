type t = {
  name : string;
  mutable next_ref : int;
  mutable next_loop : int;
  mutable arrays : Array_decl.t list;
  mutable procs : Program.proc list;
  mutable params : (string * int) list;
}

let create ~name () =
  { name; next_ref = 0; next_loop = 0; arrays = []; procs = []; params = [] }

let param b name value = b.params <- (name, value) :: b.params

let array_ b ?dist ?shared name dims =
  b.arrays <- Array_decl.make ?dist ?shared name dims :: b.arrays

let proc b pname ~formals body =
  b.procs <- { Program.pname; formals; body } :: b.procs

let fresh_ref b = let id = b.next_ref in b.next_ref <- id + 1; id
let fresh_loop b = let id = b.next_loop in b.next_loop <- id + 1; id

let ref_ b ?loc name subs =
  Reference.make ~id:(fresh_ref b) ?loc name (Array.of_list subs)

let rd b ?loc name subs = Fexpr.Ref (ref_ b ?loc name subs)
let assign b ?loc name subs e = Stmt.Assign (ref_ b ?loc name subs, e)

let for_ b ?(step = 1) ?(kind = Stmt.Serial) ?(loc = Loc.Synthetic) var lo hi
    body =
  Stmt.For { loop_id = fresh_loop b; var; lo; hi; step; kind; body; loc }

let doall b ?(step = 1) ?(sched = Stmt.Static_block) ?loc var lo hi body =
  for_ b ~step ~kind:(Stmt.Doall sched) ?loc var lo hi body

let call name args = Stmt.Call (name, args)

let critical ?(loc = Loc.Synthetic) lock body =
  Stmt.Critical { Stmt.lock; cbody = body; cloc = loc }

let reduce ?(loc = Loc.Synthetic) op var e =
  Stmt.Reduce { Stmt.rop = op; rvar = var; rexpr = e; rloc = loc }

let finish b main =
  let p =
    {
      Program.name = b.name;
      arrays = List.rev b.arrays;
      procs = List.rev b.procs;
      main;
      params = List.rev b.params;
    }
  in
  match Program.validate p with
  | [] -> p
  | problems ->
      invalid_arg
        (Printf.sprintf "Builder.finish(%s): %s" b.name (String.concat "; " problems))

module A = struct
  let v = Affine.var
  let c = Affine.const
  let ( +! ) = Affine.add
  let ( -! ) = Affine.sub
  let ( *! ) = Affine.scale
  let bk e = Bound.known e
  let bc n = Bound.of_int n
  let bv s = Bound.of_var s
end

module F = struct
  let const f = Fexpr.Const f
  let iv v = Fexpr.Ivar v
  let sv v = Fexpr.Svar v
  let ( + ) a b = Fexpr.Binop (Fexpr.Add, a, b)
  let ( - ) a b = Fexpr.Binop (Fexpr.Sub, a, b)
  let ( * ) a b = Fexpr.Binop (Fexpr.Mul, a, b)
  let ( / ) a b = Fexpr.Binop (Fexpr.Div, a, b)
  let neg a = Fexpr.Unop (Fexpr.Neg, a)
  let sqrt_ a = Fexpr.Unop (Fexpr.Sqrt, a)
  let abs_ a = Fexpr.Unop (Fexpr.Abs, a)
  let min_ a b = Fexpr.Binop (Fexpr.Min, a, b)
  let max_ a b = Fexpr.Binop (Fexpr.Max, a, b)
end
