type t = {
  const : int;
  terms : (string * int) list; (* sorted by var, coefficients non-zero *)
}

let normalize terms =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (v, c) ->
      let prev = try Hashtbl.find tbl v with Not_found -> 0 in
      Hashtbl.replace tbl v (prev + c))
    terms;
  Hashtbl.fold (fun v c acc -> if c = 0 then acc else (v, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let of_terms const terms = { const; terms = normalize terms }
let const c = { const = c; terms = [] }
let zero = const 0
let one = const 1
let var v = { const = 0; terms = [ (v, 1) ] }
let term c v = of_terms 0 [ (v, c) ]

let add a b = of_terms (a.const + b.const) (a.terms @ b.terms)

let scale k e =
  if k = 0 then zero
  else { const = k * e.const; terms = List.map (fun (v, c) -> (v, k * c)) e.terms }

let neg e = scale (-1) e
let sub a b = add a (neg b)
let const_part e = e.const
let coeff e v = try List.assoc v e.terms with Not_found -> 0
let vars e = List.map fst e.terms
let terms e = e.terms
let is_const e = e.terms = []
let to_const_opt e = if is_const e then Some e.const else None

let subst e v by =
  let c = coeff e v in
  if c = 0 then e
  else
    let without = { e with terms = List.filter (fun (w, _) -> w <> v) e.terms } in
    add without (scale c by)

let subst_env e env = List.fold_left (fun acc (v, by) -> subst acc v by) e env

let eval e lookup =
  List.fold_left (fun acc (v, c) -> acc + (c * lookup v)) e.const e.terms

let eval_alist e alist =
  try Some (eval e (fun v -> List.assoc v alist)) with Not_found -> None

let equal a b = a.const = b.const && a.terms = b.terms

let uniformly_generated a b = a.terms = b.terms

let offset_between a b =
  if uniformly_generated a b then Some (b.const - a.const) else None

let pp ppf e =
  let pp_term first ppf (v, c) =
    if c = 1 then Format.fprintf ppf (if first then "%s" else " + %s") v
    else if c = -1 then Format.fprintf ppf (if first then "-%s" else " - %s") v
    else if c >= 0 then Format.fprintf ppf (if first then "%d*%s" else " + %d*%s") c v
    else Format.fprintf ppf (if first then "-%d*%s" else " - %d*%s") (-c) v
  in
  match e.terms with
  | [] -> Format.fprintf ppf "%d" e.const
  | t0 :: rest ->
      pp_term true ppf t0;
      List.iter (pp_term false ppf) rest;
      if e.const > 0 then Format.fprintf ppf " + %d" e.const
      else if e.const < 0 then Format.fprintf ppf " - %d" (-e.const)

let to_string e = Format.asprintf "%a" pp e
