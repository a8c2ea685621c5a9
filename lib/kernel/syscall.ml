type whence =
  | Seek_set
  | Seek_cur
  | Seek_end

type request =
  | Getpid
  | Getppid
  | Getuid
  | Get_user_name
  | Getcwd
  | Chdir of string
  | Open of { path : string; flags : Idbox_vfs.Fs.open_flags; mode : int }
  | Close of int
  | Read of { fd : int; len : int }
  | Write of { fd : int; data : string }
  | Pread of { fd : int; off : int; len : int }
  | Pwrite of { fd : int; off : int; data : string }
  | Lseek of { fd : int; off : int; whence : whence }
  | Stat of string
  | Lstat of string
  | Fstat of int
  | Mkdir of { path : string; mode : int }
  | Rmdir of string
  | Unlink of string
  | Link of { target : string; path : string }
  | Symlink of { target : string; path : string }
  | Readlink of string
  | Rename of { src : string; dst : string }
  | Readdir of string
  | Chmod of { path : string; mode : int }
  | Chown of { path : string; owner : int }
  | Truncate of { path : string; len : int }
  | Pipe
  | Spawn of { path : string; args : string list }
  | Waitpid of int
  | Exit of int
  | Kill of { pid : int; signal : int }
  | Getenv of string
  | Setenv of { name : string; value : string }
  | Getacl of string
  | Setacl of { path : string; entry : string }
  | Compute of int64

type value =
  | Unit
  | Int of int
  | Str of string
  | Data of string
  | Stat_v of Idbox_vfs.Fs.stat
  | Names of string list
  | Wait_v of { pid : int; status : int }
  | Fd_pair of { rd : int; wr : int }

type result = (value, Idbox_vfs.Errno.t) Stdlib.result

let name = function
  | Getpid -> "getpid"
  | Getppid -> "getppid"
  | Getuid -> "getuid"
  | Get_user_name -> "get_user_name"
  | Getcwd -> "getcwd"
  | Chdir _ -> "chdir"
  | Open _ -> "open"
  | Close _ -> "close"
  | Read _ -> "read"
  | Write _ -> "write"
  | Pread _ -> "pread"
  | Pwrite _ -> "pwrite"
  | Lseek _ -> "lseek"
  | Stat _ -> "stat"
  | Lstat _ -> "lstat"
  | Fstat _ -> "fstat"
  | Mkdir _ -> "mkdir"
  | Rmdir _ -> "rmdir"
  | Unlink _ -> "unlink"
  | Link _ -> "link"
  | Symlink _ -> "symlink"
  | Readlink _ -> "readlink"
  | Rename _ -> "rename"
  | Readdir _ -> "readdir"
  | Chmod _ -> "chmod"
  | Chown _ -> "chown"
  | Truncate _ -> "truncate"
  | Pipe -> "pipe"
  | Spawn _ -> "spawn"
  | Waitpid _ -> "waitpid"
  | Exit _ -> "exit"
  | Kill _ -> "kill"
  | Getenv _ -> "getenv"
  | Setenv _ -> "setenv"
  | Getacl _ -> "getacl"
  | Setacl _ -> "setacl"
  | Compute _ -> "compute"

(* Stable syscall numbers, sysent-style: the dispatch table is indexed
   by these, so the numbering is part of the kernel ABI — append only,
   never renumber. *)
let number = function
  | Getpid -> 0
  | Getppid -> 1
  | Getuid -> 2
  | Get_user_name -> 3
  | Getcwd -> 4
  | Chdir _ -> 5
  | Open _ -> 6
  | Close _ -> 7
  | Read _ -> 8
  | Write _ -> 9
  | Pread _ -> 10
  | Pwrite _ -> 11
  | Lseek _ -> 12
  | Stat _ -> 13
  | Lstat _ -> 14
  | Fstat _ -> 15
  | Mkdir _ -> 16
  | Rmdir _ -> 17
  | Unlink _ -> 18
  | Link _ -> 19
  | Symlink _ -> 20
  | Readlink _ -> 21
  | Rename _ -> 22
  | Readdir _ -> 23
  | Chmod _ -> 24
  | Chown _ -> 25
  | Truncate _ -> 26
  | Pipe -> 27
  | Spawn _ -> 28
  | Waitpid _ -> 29
  | Exit _ -> 30
  | Kill _ -> 31
  | Getenv _ -> 32
  | Setenv _ -> 33
  | Getacl _ -> 34
  | Setacl _ -> 35
  | Compute _ -> 36

let count = 37

(* One representative value per constructor, in {!number} order: what a
   table builder iterates to stamp out one sysent entry per call. *)
let prototypes =
  let no_flags =
    { Idbox_vfs.Fs.rd = false; wr = false; creat = false; excl = false;
      trunc = false; append = false }
  in
  [
    Getpid;
    Getppid;
    Getuid;
    Get_user_name;
    Getcwd;
    Chdir "/";
    Open { path = "/"; flags = no_flags; mode = 0 };
    Close 0;
    Read { fd = 0; len = 0 };
    Write { fd = 0; data = "" };
    Pread { fd = 0; off = 0; len = 0 };
    Pwrite { fd = 0; off = 0; data = "" };
    Lseek { fd = 0; off = 0; whence = Seek_set };
    Stat "/";
    Lstat "/";
    Fstat 0;
    Mkdir { path = "/"; mode = 0 };
    Rmdir "/";
    Unlink "/";
    Link { target = "/"; path = "/" };
    Symlink { target = "/"; path = "/" };
    Readlink "/";
    Rename { src = "/"; dst = "/" };
    Readdir "/";
    Chmod { path = "/"; mode = 0 };
    Chown { path = "/"; owner = 0 };
    Truncate { path = "/"; len = 0 };
    Pipe;
    Spawn { path = "/"; args = [] };
    Waitpid (-1);
    Exit 0;
    Kill { pid = 0; signal = 0 };
    Getenv "";
    Setenv { name = ""; value = "" };
    Getacl "/";
    Setacl { path = "/"; entry = "" };
    Compute 0L;
  ]

(* The sysent arity: how many argument registers the call uses at the
   trap boundary (DragonFly's [sy_narg]).  Static per call — unlike
   {!argument_words}, which counts the words a tracer must PEEK and so
   depends on path lengths. *)
let register_args = function
  | Getpid | Getppid | Getuid | Get_user_name | Getcwd | Pipe -> 0
  | Chdir _ | Close _ | Stat _ | Lstat _ | Fstat _ | Rmdir _ | Unlink _
  | Readlink _ | Readdir _ | Waitpid _ | Exit _ | Getenv _ | Getacl _ -> 1
  | Mkdir _ | Chmod _ | Chown _ | Truncate _ | Link _ | Symlink _ | Rename _
  | Kill _ | Setenv _ | Setacl _ | Spawn _ -> 2
  | Open _ | Read _ | Write _ | Lseek _ -> 3
  | Pread _ | Pwrite _ -> 4
  | Compute _ -> 1

let is_metadata = function
  | Stat _ | Lstat _ | Fstat _ | Open _ | Close _ | Mkdir _ | Rmdir _ | Unlink _
  | Link _ | Symlink _ | Readlink _ | Rename _ | Readdir _ | Chmod _ | Chown _
  | Getacl _ | Setacl _ | Chdir _ | Getcwd -> true
  | Getpid | Getppid | Getuid | Get_user_name | Read _ | Write _ | Pread _
  | Pwrite _ | Lseek _ | Truncate _ | Pipe | Spawn _ | Waitpid _ | Exit _
  | Kill _ | Getenv _ | Setenv _ | Compute _ -> false

let payload_bytes req result =
  match req with
  | Write { data; _ } | Pwrite { data; _ } -> String.length data
  | Read _ | Pread _ ->
    (match result with Ok (Data d) -> String.length d | Ok _ | Error _ -> 0)
  | Getpid | Getppid | Getuid | Get_user_name | Getcwd | Chdir _ | Open _
  | Close _ | Lseek _ | Stat _ | Lstat _ | Fstat _ | Mkdir _ | Rmdir _
  | Unlink _ | Link _ | Symlink _ | Readlink _ | Rename _ | Readdir _
  | Chmod _ | Chown _ | Truncate _ | Pipe | Spawn _ | Waitpid _ | Exit _
  | Kill _ | Getenv _ | Setenv _ | Getacl _ | Setacl _ | Compute _ -> 0

let word_size = 8

let words_of_string s = (String.length s + word_size - 1) / word_size

let argument_words = function
  | Getpid | Getppid | Getuid | Get_user_name | Getcwd | Pipe -> 0
  | Close _ | Waitpid _ | Exit _ -> 1
  | Read _ | Lseek _ | Kill _ -> 2
  | Pread _ -> 3
  | Chdir p | Stat p | Lstat p | Rmdir p | Unlink p | Readlink p | Readdir p
  | Getacl p -> 1 + words_of_string p
  | Open { path; _ } -> 3 + words_of_string path
  | Mkdir { path; _ } | Chmod { path; _ } | Chown { path; _ }
  | Truncate { path; _ } -> 2 + words_of_string path
  (* Bulk payloads never travel by PEEK: the tracer reads the register
     triple (fd, buffer pointer, length) and moves the data through the
     I/O channel or an explicit small-transfer PEEK loop, both charged
     by the supervisor that performs them. *)
  | Write _ -> 3
  | Pwrite _ -> 4
  | Link { target; path } | Symlink { target; path } ->
    2 + words_of_string target + words_of_string path
  | Rename { src; dst } -> 2 + words_of_string src + words_of_string dst
  | Spawn { path; args } ->
    1 + words_of_string path
    + List.fold_left (fun acc a -> acc + 1 + words_of_string a) 0 args
  | Fstat _ -> 1
  | Getenv n -> 1 + words_of_string n
  | Setenv { name = n; value } -> 2 + words_of_string n + words_of_string value
  | Setacl { path; entry } -> 2 + words_of_string path + words_of_string entry
  | Compute _ -> 0

let result_words = function
  | Error _ -> 1
  | Ok Unit -> 1
  | Ok (Int _) -> 1
  | Ok (Str s) -> 1 + words_of_string s
  | Ok (Data _) ->
    (* Bulk payloads travel through the I/O channel, not peek/poke; the
       tracer pokes only the rewritten registers. *)
    2
  | Ok (Stat_v _) -> 16
  | Ok (Names names) ->
    List.fold_left (fun acc n -> acc + 1 + words_of_string n) 1 names
  | Ok (Wait_v _) -> 2
  | Ok (Fd_pair _) -> 2

let read_to_end submit ~fd ~chunk =
  let rec more acc =
    match submit (Read { fd; len = chunk }) with
    | Ok (Data "") ->
      Ok (match acc with [ c ] -> c | cs -> String.concat "" (List.rev cs))
    | Ok (Data c) -> more (c :: acc)
    | Ok _ -> Error Idbox_vfs.Errno.EINVAL
    | Error e -> Error e
  in
  more []

let pp_request ppf req = Format.pp_print_string ppf (name req)

let pp_value ppf = function
  | Unit -> Format.pp_print_string ppf "()"
  | Int n -> Format.pp_print_int ppf n
  | Str s -> Format.fprintf ppf "%S" s
  | Data d -> Format.fprintf ppf "<%d bytes>" (String.length d)
  | Stat_v st -> Format.fprintf ppf "<stat ino=%d>" st.Idbox_vfs.Fs.st_ino
  | Names names -> Format.fprintf ppf "[%s]" (String.concat "; " names)
  | Wait_v { pid; status } -> Format.fprintf ppf "(pid %d, status %d)" pid status
  | Fd_pair { rd; wr } -> Format.fprintf ppf "(rd %d, wr %d)" rd wr

let pp_result ppf = function
  | Ok v -> pp_value ppf v
  | Error e -> Idbox_vfs.Errno.pp ppf e
