type unop = Neg | Sqrt | Abs
type binop = Add | Sub | Mul | Div | Min | Max

type t =
  | Const of float
  | Ref of Reference.t
  | Ivar of string
  | Svar of string
  | Unop of unop * t
  | Binop of binop * t * t

let rec fold_reads f acc = function
  | Const _ | Ivar _ | Svar _ -> acc
  | Ref r -> f acc r
  | Unop (_, e) -> fold_reads f acc e
  | Binop (_, a, b) -> fold_reads f (fold_reads f acc a) b

let reads e = List.rev (fold_reads (fun acc r -> r :: acc) [] e)

let rec subst_env e env =
  match e with
  | Const _ | Svar _ -> e
  | Ivar v -> (
      (* an induction variable replaced by a constant actual stays numeric *)
      match List.assoc_opt v env with
      | Some a -> (
          match Affine.to_const_opt a with
          | Some c -> Const (float_of_int c)
          | None -> (
              match Affine.terms a with
              | [ (w, 1) ] when Affine.const_part a = 0 -> Ivar w
              | _ -> e))
      | None -> e)
  | Ref r -> Ref (Reference.subst_env r env)
  | Unop (op, a) -> Unop (op, subst_env a env)
  | Binop (op, a, b) -> Binop (op, subst_env a env, subst_env b env)

let rec map_ref_ids f = function
  | (Const _ | Ivar _ | Svar _) as e -> e
  | Ref r -> Ref (Reference.with_id r (f r.Reference.id))
  | Unop (op, a) -> Unop (op, map_ref_ids f a)
  | Binop (op, a, b) -> Binop (op, map_ref_ids f a, map_ref_ids f b)

let rec flops = function
  | Const _ | Ref _ | Ivar _ | Svar _ -> 0
  | Unop (_, e) -> 1 + flops e
  | Binop (_, a, b) -> 1 + flops a + flops b

let[@inline] apply_unop op x =
  match op with Neg -> -.x | Sqrt -> sqrt x | Abs -> abs_float x

let[@inline] apply_binop op a b =
  match op with
  | Add -> a +. b
  | Sub -> a -. b
  | Mul -> a *. b
  | Div -> a /. b
  | Min -> Float.min a b
  | Max -> Float.max a b

let unop_at op stack d = stack.(d) <- apply_unop op stack.(d)
let binop_at op stack d = stack.(d) <- apply_binop op stack.(d) stack.(d + 1)

let string_of_binop = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Min -> "min"
  | Max -> "max"

let rec pp ppf = function
  | Const c -> Format.fprintf ppf "%g" c
  | Ref r -> Reference.pp ppf r
  | Ivar v -> Format.fprintf ppf "%s" v
  | Svar v -> Format.fprintf ppf "$%s" v
  | Unop (Neg, e) -> Format.fprintf ppf "(-%a)" pp e
  | Unop (Sqrt, e) -> Format.fprintf ppf "sqrt(%a)" pp e
  | Unop (Abs, e) -> Format.fprintf ppf "abs(%a)" pp e
  | Binop ((Min | Max) as op, a, b) ->
      Format.fprintf ppf "%s(%a, %a)" (string_of_binop op) pp a pp b
  | Binop (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp a (string_of_binop op) pp b
