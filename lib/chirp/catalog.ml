module Network = Idbox_net.Network
module Clock = Idbox_kernel.Clock

type entry = {
  name : string;
  server_addr : string;
  owner : string;
  registered_at : int64;
  mutable last_heartbeat : int64;
}

type t = {
  ct_net : Network.t;
  ct_addr : string;
  ct_staleness_ns : int64;
  table : (string, entry) Hashtbl.t;
}

let addr t = t.ct_addr

let metric t name = Network.count t.ct_net name

(* Forget servers that have not checked in for [staleness_ns]: a server
   cut off by a partition (or simply gone) stops being advertised, and
   reappears on its next successful heartbeat. *)
let sweep t =
  let now = Clock.now (Network.clock t.ct_net) in
  let stale =
    Hashtbl.fold
      (fun name e acc ->
        if Int64.sub now e.last_heartbeat > t.ct_staleness_ns then name :: acc
        else acc)
      t.table []
  in
  List.iter
    (fun name ->
      Hashtbl.remove t.table name;
      metric t "catalog.evict")
    stale

let entries t =
  sweep t;
  Hashtbl.fold (fun _ e acc -> e :: acc) t.table []
  |> List.sort (fun a b -> String.compare a.name b.name)

(* Registration and heartbeat share one path: a heartbeat IS a repeated
   registration.  Re-registering the same name for the same address
   refreshes the entry in place (keeping [registered_at], so discovery
   age is honest); a different address replaces the entry outright. *)
let upsert t ~name ~server_addr ~owner =
  let now = Clock.now (Network.clock t.ct_net) in
  match Hashtbl.find_opt t.table name with
  | Some e when String.equal e.server_addr server_addr ->
    e.last_heartbeat <- now;
    metric t "catalog.heartbeat"
  | _ ->
    Hashtbl.replace t.table name
      { name; server_addr; owner; registered_at = now; last_heartbeat = now }

let handle t payload =
  match Wire.decode payload with
  | Ok [ ("register" | "heartbeat"); name; server_addr; owner ] ->
    sweep t;
    upsert t ~name ~server_addr ~owner;
    Wire.encode [ "ok" ]
  | Ok [ "list" ] ->
    let fields =
      List.concat_map
        (fun e ->
          [ e.name; e.server_addr; e.owner; Int64.to_string e.registered_at;
            Int64.to_string e.last_heartbeat ])
        (entries t)
    in
    Wire.encode ("ok" :: fields)
  | Ok [ "deregister"; name ] ->
    (* A clean departure (scale-down): stop advertising now instead of
       waiting out the lease, so routers rebalance on their next sync. *)
    if Hashtbl.mem t.table name then begin
      Hashtbl.remove t.table name;
      metric t "catalog.deregister"
    end;
    Wire.encode [ "ok" ]
  | Ok _ | Error _ -> Wire.encode [ "error"; "bad catalog request" ]

let create ?(staleness_ns = 300_000_000_000L) net ~addr =
  let t =
    { ct_net = net; ct_addr = addr; ct_staleness_ns = staleness_ns;
      table = Hashtbl.create 8 }
  in
  Network.listen net ~addr (fun payload -> handle t payload);
  t

let shutdown t = Network.unlisten t.ct_net ~addr:t.ct_addr

let register ?(src = "client") net ~catalog ~name ~server_addr ~owner =
  match
    Network.call net ~src ~addr:catalog
      (Wire.encode [ "register"; name; server_addr; owner ])
  with
  | Error e -> Error (Idbox_vfs.Errno.message e)
  | Ok payload ->
    (match Wire.decode payload with
     | Ok [ "ok" ] -> Ok ()
     | Ok ("error" :: msg :: _) -> Error msg
     | Ok _ | Error _ -> Error "bad catalog response")

let deregister ?(src = "client") net ~catalog ~name =
  match
    Network.call net ~src ~addr:catalog (Wire.encode [ "deregister"; name ])
  with
  | Error e -> Error (Idbox_vfs.Errno.message e)
  | Ok payload ->
    (match Wire.decode payload with
     | Ok [ "ok" ] -> Ok ()
     | Ok ("error" :: msg :: _) -> Error msg
     | Ok _ | Error _ -> Error "bad catalog response")

let list ?(src = "client") ?timeout_ns net ~catalog =
  match
    Network.call net ~src ?timeout_ns ~addr:catalog (Wire.encode [ "list" ])
  with
  | Error e -> Error (Idbox_vfs.Errno.message e)
  | Ok payload ->
    (match Wire.decode payload with
     | Ok ("ok" :: fields) ->
       let rec parse acc = function
         | [] -> Ok (List.rev acc)
         | name :: server_addr :: owner :: stamp :: beat :: rest ->
           (match (Int64.of_string_opt stamp, Int64.of_string_opt beat) with
            | Some registered_at, Some last_heartbeat ->
              parse
                ({ name; server_addr; owner; registered_at; last_heartbeat }
                 :: acc)
                rest
            | _ -> Error "bad catalog timestamp")
         | _ -> Error "truncated catalog entry"
       in
       parse [] fields
     | Ok ("error" :: msg :: _) -> Error msg
     | Ok _ | Error _ -> Error "bad catalog response")

(* {1 Heartbeat driver} *)

type heartbeat = {
  hb_net : Network.t;
  hb_catalog : string;
  hb_src : string;
  hb_name : string;
  hb_server_addr : string;
  hb_owner : string;
  hb_interval_ns : int64;
  mutable hb_due : int64;
  mutable hb_sent : int;
  mutable hb_missed : int;
}

let send hb =
  match
    Network.call hb.hb_net ~src:hb.hb_src ~addr:hb.hb_catalog
      (Wire.encode
         [ "heartbeat"; hb.hb_name; hb.hb_server_addr; hb.hb_owner ])
  with
  | Ok _ ->
    hb.hb_sent <- hb.hb_sent + 1;
    true
  | Error _ ->
    hb.hb_missed <- hb.hb_missed + 1;
    false

let tick hb =
  let now = Clock.now (Network.clock hb.hb_net) in
  if now < hb.hb_due then false
  else begin
    let ok = send hb in
    (* On failure stay due: the next tick retries immediately, so the
       server re-registers as soon as a partition heals instead of
       waiting out a full interval. *)
    if ok then hb.hb_due <- Int64.add now hb.hb_interval_ns;
    ok
  end

let heartbeat ?(src = "client") ?(interval_ns = 60_000_000_000L) net ~catalog
    ~name ~server_addr ~owner =
  let hb =
    { hb_net = net; hb_catalog = catalog; hb_src = src; hb_name = name;
      hb_server_addr = server_addr; hb_owner = owner;
      hb_interval_ns = interval_ns; hb_due = Clock.now (Network.clock net);
      hb_sent = 0; hb_missed = 0 }
  in
  ignore (tick hb);
  hb

let heartbeats_sent hb = hb.hb_sent
let heartbeats_missed hb = hb.hb_missed
