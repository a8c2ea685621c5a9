module Network = Idbox_net.Network
module Clock = Idbox_kernel.Clock
module Catalog = Idbox_chirp.Catalog

type liveness = Alive | Suspect | Dead

let liveness_name = function
  | Alive -> "alive"
  | Suspect -> "suspect"
  | Dead -> "dead"

type node_health = {
  nh_name : string;
  nh_addr : string;
  nh_heartbeat_age_ns : int64;
  nh_lease_left_ns : int64;
  nh_liveness : liveness;
}

type t = {
  mb_net : Network.t;
  mb_catalog : string;
  mb_src : string;
  mb_timeout_ns : int64 option;
  mb_staleness_ns : int64;
  mutable mb_view : (string * string) list;  (* (name, addr), sorted by name *)
  mutable mb_entries : Catalog.entry list;  (* full entries, last refresh *)
  mutable mb_generation : int;
}

let create ?(src = "client") ?timeout_ns
    ?(staleness_ns = 300_000_000_000L) net ~catalog =
  { mb_net = net; mb_catalog = catalog; mb_src = src;
    mb_timeout_ns = timeout_ns; mb_staleness_ns = staleness_ns;
    mb_view = []; mb_entries = []; mb_generation = 0 }

let view t = t.mb_view
let names t = List.map fst t.mb_view
let addr_of t name = List.assoc_opt name t.mb_view
let generation t = t.mb_generation

(* Per-node liveness, judged from the last refresh snapshot against the
   current clock: heartbeat ages keep growing between refreshes, so a
   node that died since we last looked drifts from alive through
   suspect to dead without another catalog round trip.  [Suspect]
   starts at half the lease: one more missed heartbeat is survivable,
   several are not. *)
let health t =
  let now = Clock.now (Network.clock t.mb_net) in
  List.map
    (fun (e : Catalog.entry) ->
      let age = Int64.max 0L (Int64.sub now e.Catalog.last_heartbeat) in
      let left = Int64.sub t.mb_staleness_ns age in
      let liveness =
        if Int64.compare left 0L <= 0 then Dead
        else if Int64.compare age (Int64.div t.mb_staleness_ns 2L) >= 0 then
          Suspect
        else Alive
      in
      {
        nh_name = e.Catalog.name;
        nh_addr = e.Catalog.server_addr;
        nh_heartbeat_age_ns = age;
        nh_lease_left_ns = Int64.max 0L left;
        nh_liveness = liveness;
      })
    t.mb_entries

let health_of t name =
  List.find_opt (fun nh -> String.equal nh.nh_name name) (health t)

let metric t name = Network.count t.mb_net name

let refresh t =
  match
    Catalog.list ~src:t.mb_src ?timeout_ns:t.mb_timeout_ns t.mb_net
      ~catalog:t.mb_catalog
  with
  | Error e -> Error e
  | Ok entries ->
    let fresh =
      List.map (fun e -> (e.Catalog.name, e.Catalog.server_addr)) entries
      |> List.sort compare
    in
    t.mb_entries <-
      List.sort
        (fun (a : Catalog.entry) b -> String.compare a.Catalog.name b.Catalog.name)
        entries;
    if List.equal ( = ) fresh t.mb_view then Ok false
    else begin
      let old_names = List.map fst t.mb_view in
      let new_names = List.map fst fresh in
      List.iter
        (fun n ->
          if not (List.mem n old_names) then metric t "cluster.member.join")
        new_names;
      List.iter
        (fun n ->
          if not (List.mem n new_names) then metric t "cluster.member.leave")
        old_names;
      t.mb_view <- fresh;
      t.mb_generation <- t.mb_generation + 1;
      Ok true
    end
