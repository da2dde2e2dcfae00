open Ccdp_ir

type t = {
  decl : Array_decl.t;
  n_pes : int;
  ddim : int option;
  chunk : int;
  per_pe_words : int;
}

let ceil_div a b = (a + b - 1) / b

let make ~n_pes (decl : Array_decl.t) =
  if n_pes <= 0 then invalid_arg "Layout.make: n_pes <= 0";
  match decl.dist with
  | Dist.Replicated ->
      { decl; n_pes; ddim = None; chunk = 0; per_pe_words = Array_decl.elems decl }
  | Dist.Dims dims -> (
      match Dist.distributed_dim decl.dist with
      | None ->
          (* undistributed shared array: lives wholly on PE 0 *)
          { decl; n_pes; ddim = None; chunk = 0; per_pe_words = Array_decl.elems decl }
      | Some d ->
          let n = decl.dims.(d) in
          let chunk =
            match dims.(d) with
            | Dist.Block -> ceil_div n n_pes
            | Dist.Cyclic -> 1
            | Dist.Block_cyclic w -> w
            | Dist.Degenerate -> assert false
          in
          let per_pe_extent =
            match dims.(d) with
            | Dist.Block -> chunk
            | Dist.Cyclic -> ceil_div n n_pes
            | Dist.Block_cyclic w -> ceil_div n (w * n_pes) * w
            | Dist.Degenerate -> assert false
          in
          let other = Array_decl.elems decl / n in
          {
            decl;
            n_pes;
            ddim = Some d;
            chunk;
            per_pe_words = other * per_pe_extent;
          })

let dim_pattern t d =
  match t.decl.dist with
  | Dist.Replicated -> Dist.Degenerate
  | Dist.Dims dims -> dims.(d)

(* [-1] encodes "local to every PE" (replicated / private data), any other
   value the owning PE id *)
let owner_id t idx =
  match t.ddim with
  | None -> if t.decl.dist = Dist.Replicated then -1 else 0
  | Some d -> (
      let i = idx.(d) in
      match dim_pattern t d with
      | Dist.Block -> i / t.chunk
      | Dist.Cyclic -> i mod t.n_pes
      | Dist.Block_cyclic w -> i / w mod t.n_pes
      | Dist.Degenerate -> assert false)

(* Local index along the distributed dimension within the owner's portion. *)
let local_dim_index t i =
  match t.ddim with
  | None -> i
  | Some d -> (
      match dim_pattern t d with
      | Dist.Block -> i - (i / t.chunk * t.chunk)
      | Dist.Cyclic -> i / t.n_pes
      | Dist.Block_cyclic w -> (i / (w * t.n_pes) * w) + (i mod w)
      | Dist.Degenerate -> assert false)

(* Per-PE extent along the distributed dimension. *)
let local_dim_extent t =
  match t.ddim with
  | None -> 0
  | Some d -> (
      let n = t.decl.dims.(d) in
      match dim_pattern t d with
      | Dist.Block -> t.chunk
      | Dist.Cyclic -> ceil_div n t.n_pes
      | Dist.Block_cyclic w -> ceil_div n (w * t.n_pes) * w
      | Dist.Degenerate -> assert false)

let local_offset t idx =
  let rank = Array_decl.rank t.decl in
  if Array.length idx <> rank then invalid_arg "Layout.local_offset: rank mismatch";
  match t.ddim with
  | None -> Array_decl.linear_index t.decl idx
  | Some dd ->
      (* column-major over the per-PE extents *)
      let lin = ref 0 in
      for d = rank - 1 downto 0 do
        let extent = if d = dd then local_dim_extent t else t.decl.dims.(d) in
        let i = if d = dd then local_dim_index t idx.(d) else idx.(d) in
        lin := (!lin * extent) + i
      done;
      !lin

let strides t =
  let s = Array.make (Array_decl.rank t.decl) 1 in
  for d = 1 to Array.length s - 1 do
    let extent =
      if t.ddim = Some (d - 1) then local_dim_extent t else t.decl.dims.(d - 1)
    in
    s.(d) <- s.(d - 1) * extent
  done;
  s

let owned_section t pe =
  match t.ddim with
  | None ->
      if t.decl.dist = Dist.Replicated then Section.whole
      else if pe = 0 then Section.whole
      else Section.empty
  | Some dd -> (
      let n = t.decl.dims.(dd) in
      let dim_for d =
        if d <> dd then Section.dim ~lo:0 ~hi:(t.decl.dims.(d) - 1) ~step:1
        else
          match dim_pattern t dd with
          | Dist.Block ->
              let lo = pe * t.chunk and hi = min (n - 1) (((pe + 1) * t.chunk) - 1) in
              if lo > hi then raise Exit else Section.dim ~lo ~hi ~step:1
          | Dist.Cyclic ->
              if pe > n - 1 then raise Exit
              else Section.dim ~lo:pe ~hi:(n - 1) ~step:t.n_pes
          | Dist.Block_cyclic w ->
              (* conservative: hull of this PE's blocks *)
              let lo = pe * w in
              if lo > n - 1 then raise Exit
              else Section.dim ~lo ~hi:(n - 1) ~step:1
          | Dist.Degenerate -> assert false
      in
      try
        Section.of_dims
          (List.init (Array_decl.rank t.decl) dim_for)
      with Exit -> Section.empty)
