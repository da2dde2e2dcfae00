type t = {
  name : string;
  dims : int array;
  dist : Dist.t;
  shared : bool;
}

let make ?(dist = Dist.replicated) ?(shared = true) name dims =
  if Array.length dims = 0 then invalid_arg "Array_decl.make: rank 0";
  Array.iter (fun d -> if d <= 0 then invalid_arg "Array_decl.make: empty dim") dims;
  (match dist with
  | Dist.Dims ds when Array.length ds <> Array.length dims ->
      invalid_arg "Array_decl.make: distribution rank mismatch"
  | Dist.Dims _ | Dist.Replicated -> ());
  { name; dims; dist; shared }

let rank a = Array.length a.dims
let elems a = Array.fold_left ( * ) 1 a.dims

(* Column-major (Fortran) linearization: dimension 0 is contiguous. *)
let linear_index a idx =
  if Array.length idx <> Array.length a.dims then
    invalid_arg (a.name ^ ": subscript rank mismatch");
  let lin = ref 0 in
  for d = Array.length idx - 1 downto 0 do
    let i = idx.(d) in
    if i < 0 || i >= a.dims.(d) then
      invalid_arg
        (Printf.sprintf "%s: index %d out of bounds 0..%d in dim %d" a.name i
           (a.dims.(d) - 1) d);
    lin := (!lin * a.dims.(d)) + i
  done;
  !lin

let point_of_linear a lin =
  let n = Array.length a.dims in
  let idx = Array.make n 0 in
  let rem = ref lin in
  for d = 0 to n - 1 do
    idx.(d) <- !rem mod a.dims.(d);
    rem := !rem / a.dims.(d)
  done;
  idx

let pp ppf a =
  Format.fprintf ppf "%s%s[%s] dist=%a" a.name
    (if a.shared then "" else " (private)")
    (String.concat "][" (Array.to_list (Array.map string_of_int a.dims)))
    Dist.pp a.dist
