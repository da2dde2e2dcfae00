type dim_dist = Block | Cyclic | Block_cyclic of int | Degenerate
type t = Dims of dim_dist array | Replicated

let along ~rank ~dim pattern =
  if dim < 0 || dim >= rank then
    invalid_arg (Printf.sprintf "Dist.along: dim %d out of rank %d" dim rank);
  Dims (Array.init rank (fun d -> if d = dim then pattern else Degenerate))

let block_along ~rank ~dim = along ~rank ~dim Block
let cyclic_along ~rank ~dim = along ~rank ~dim Cyclic
let replicated = Replicated

let distributed_dim = function
  | Replicated -> None
  | Dims dims ->
      let found = ref None in
      Array.iteri (fun d p -> if p <> Degenerate && !found = None then found := Some d) dims;
      !found

let pp_dim ppf = function
  | Block -> Format.pp_print_string ppf "block"
  | Cyclic -> Format.pp_print_string ppf "cyclic"
  | Block_cyclic w -> Format.fprintf ppf "block_cyclic(%d)" w
  | Degenerate -> Format.pp_print_string ppf ":"

let pp ppf = function
  | Replicated -> Format.pp_print_string ppf "replicated"
  | Dims dims ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_dim)
        (Array.to_list dims)
