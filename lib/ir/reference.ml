type t = { id : int; array_name : string; subs : Affine.t array; loc : Loc.t }

let make ~id ?(loc = Loc.Synthetic) array_name subs =
  { id; array_name; subs; loc }

let subst_env r env =
  { r with subs = Array.map (fun e -> Affine.subst_env e env) r.subs }

let with_id r id = { r with id }

let uniformly_generated a b =
  String.equal a.array_name b.array_name
  && Array.length a.subs = Array.length b.subs
  && (let ok = ref true in
      Array.iteri
        (fun i e -> if not (Affine.uniformly_generated e b.subs.(i)) then ok := false)
        a.subs;
      !ok)

let pp ppf r =
  Format.fprintf ppf "%s(%a)#%d" r.array_name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Affine.pp)
    (Array.to_list r.subs) r.id

let to_string r = Format.asprintf "%a" pp r
