module By_rid = Map.Make (String)

type entry = {
  at : int;  (* a simulated-clock reading: non-negative, fits an int *)
  rid : string;
  fragment : string;  (* Wire.encode [rid; at; response] *)
}

(* Expiry order: completion time, then request id. *)
module By_at = Set.Make (struct
  type t = entry

  let compare a b = match Int.compare a.at b.at with 0 -> String.compare a.rid b.rid | c -> c
end)

(* Every entry sits in a map by request id, for lookups and the
   id-ordered image, and in a set by completion time, for expiry. *)
type t = {
  mutable by_rid : entry By_rid.t;
  mutable by_at : By_at.t;
  mutable count : int;
  mutable bytes : int;  (* sum of fragment lengths *)
}

let create () = { by_rid = By_rid.empty; by_at = By_at.empty; count = 0; bytes = 0 }

let size t = t.count

(* The maps are persistent: a copy shares them and later changes to
   either side leave the other as it was. *)
let copy t = { t with count = t.count }

let clear t =
  t.by_rid <- By_rid.empty;
  t.by_at <- By_at.empty;
  t.count <- 0;
  t.bytes <- 0

let find t rid =
  match By_rid.find_opt rid t.by_rid with
  | None -> None
  | Some e ->
    (match Wire.decode e.fragment with
     | Ok [ _; _; response ] -> Some response
     | Ok _ | Error _ -> None)

let remove t e =
  t.by_rid <- By_rid.remove e.rid t.by_rid;
  t.by_at <- By_at.remove e t.by_at;
  t.count <- t.count - 1;
  t.bytes <- t.bytes - String.length e.fragment

let add t rid ~at response =
  (match By_rid.find_opt rid t.by_rid with Some e -> remove t e | None -> ());
  let fragment = Wire.encode [ rid; Int64.to_string at; response ] in
  let e = { at = Int64.to_int at; rid; fragment } in
  t.by_rid <- By_rid.add rid e t.by_rid;
  t.by_at <- By_at.add e t.by_at;
  t.count <- t.count + 1;
  t.bytes <- t.bytes + String.length e.fragment

(* [now - at > window] holds for a prefix of the time order, so expiry
   stops at the first entry that stays. *)
let expire t ~now ~window =
  let rec go evicted =
    match By_at.min_elt_opt t.by_at with
    | Some e when Int64.sub now (Int64.of_int e.at) > window ->
      remove t e;
      go (evicted + 1)
    | Some _ | None -> evicted
  in
  go 0

let image_size t = t.bytes
let add_image t buf = By_rid.iter (fun _ e -> Buffer.add_string buf e.fragment) t.by_rid

let restore t image =
  match Wire.decode image with
  | Error _ -> ()
  | Ok fields ->
    let rec go = function
      | rid :: at :: response :: rest ->
        (match Int64.of_string_opt at with
         | Some at -> add t rid ~at response
         | None -> ());
        go rest
      | _ -> ()
    in
    go fields
