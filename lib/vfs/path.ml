let root = "/"

let is_absolute p = String.length p > 0 && p.[0] = '/'

let components p =
  String.split_on_char '/' p
  |> List.filter (fun c -> String.length c > 0 && not (String.equal c "."))

let of_components = function
  | [] -> root
  | comps -> "/" ^ String.concat "/" comps

(* Whether every component of [p] from [start] on is non-empty and not
   "." or ".."; [i] is the byte being read. *)
let rec canonical_from p n start i =
  if i < n && p.[i] <> '/' then canonical_from p n start (i + 1)
  else
    (match i - start with
     | 0 -> false
     | 1 -> p.[start] <> '.'
     | 2 -> not (p.[start] = '.' && p.[start + 1] = '.')
     | _ -> true)
    && (i = n || canonical_from p n (i + 1) (i + 1))

(* Absolute, and no component is empty, "." or "..": [normalize]'s own
   output form.  One scan, no allocation. *)
let is_canonical p =
  let n = String.length p in
  n > 0 && p.[0] = '/' && (n = 1 || canonical_from p n 1 1)

let normalize p =
  if is_canonical p then p
  else
    let resolve acc comp =
      match comp with
      | ".." -> (match acc with [] -> [] | _ :: rest -> rest)
      | c -> c :: acc
    in
    components p |> List.fold_left resolve [] |> List.rev |> of_components

let join base p =
  if is_absolute p then normalize p
  else normalize (base ^ "/" ^ p)

let basename p =
  match List.rev (components p) with
  | [] -> root
  | last :: _ -> last

let dirname p =
  match List.rev (components p) with
  | [] | [ _ ] -> root
  | _ :: rest -> of_components (List.rev rest)

let split p =
  match components p with
  | [] -> None
  | comps ->
    let rev = List.rev comps in
    (match rev with
     | [] -> None
     | last :: parents -> Some (of_components (List.rev parents), last))

let is_prefix ~prefix p =
  let rec go pre cs =
    match (pre, cs) with
    | [], _ -> true
    | _ :: _, [] -> false
    | a :: pre', b :: cs' -> String.equal a b && go pre' cs'
  in
  go (components prefix) (components p)

let strip_prefix ~prefix p =
  let rec go pre cs =
    match (pre, cs) with
    | [], rest -> Some (of_components rest)
    | _ :: _, [] -> None
    | a :: pre', b :: cs' -> if String.equal a b then go pre' cs' else None
  in
  go (components prefix) (components p)

let pp ppf p = Format.pp_print_string ppf p
