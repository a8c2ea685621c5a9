module Fs = Idbox_vfs.Fs
module Errno = Idbox_vfs.Errno

let sys = Program.sys

exception Syscall_failed of string * Errno.t

let check what = function
  | Ok v -> v
  | Error e -> raise (Syscall_failed (what, e))

let expect_int what = function
  | Ok (Syscall.Int n) -> Ok n
  | Ok _ -> invalid_arg (what ^ ": unexpected result shape")
  | Error e -> Error e

let expect_unit what = function
  | Ok Syscall.Unit -> Ok ()
  | Ok _ -> invalid_arg (what ^ ": unexpected result shape")
  | Error e -> Error e

let expect_str what = function
  | Ok (Syscall.Str s) -> Ok s
  | Ok _ -> invalid_arg (what ^ ": unexpected result shape")
  | Error e -> Error e

let expect_data what = function
  | Ok (Syscall.Data d) -> Ok d
  | Ok _ -> invalid_arg (what ^ ": unexpected result shape")
  | Error e -> Error e

let expect_stat what = function
  | Ok (Syscall.Stat_v st) -> Ok st
  | Ok _ -> invalid_arg (what ^ ": unexpected result shape")
  | Error e -> Error e

let getpid () = check "getpid" (expect_int "getpid" (sys Syscall.Getpid))
let getppid () = check "getppid" (expect_int "getppid" (sys Syscall.Getppid))
let getuid () = check "getuid" (expect_int "getuid" (sys Syscall.Getuid))

let get_user_name () =
  check "get_user_name" (expect_str "get_user_name" (sys Syscall.Get_user_name))

let getcwd () = check "getcwd" (expect_str "getcwd" (sys Syscall.Getcwd))

let chdir path = expect_unit "chdir" (sys (Syscall.Chdir path))

let open_file ?(flags = Fs.rdonly) ?(mode = 0o644) path =
  expect_int "open" (sys (Syscall.Open { path; flags; mode }))

let close fd = expect_unit "close" (sys (Syscall.Close fd))

let read fd ~len = expect_data "read" (sys (Syscall.Read { fd; len }))

let write fd data = expect_int "write" (sys (Syscall.Write { fd; data }))

let pread fd ~off ~len = expect_data "pread" (sys (Syscall.Pread { fd; off; len }))

let pwrite fd ~off data =
  expect_int "pwrite" (sys (Syscall.Pwrite { fd; off; data }))

let lseek fd ~off ~whence =
  expect_int "lseek" (sys (Syscall.Lseek { fd; off; whence }))

let stat path = expect_stat "stat" (sys (Syscall.Stat path))
let lstat path = expect_stat "lstat" (sys (Syscall.Lstat path))
let fstat fd = expect_stat "fstat" (sys (Syscall.Fstat fd))

let mkdir ?(mode = 0o755) path = expect_unit "mkdir" (sys (Syscall.Mkdir { path; mode }))

let rmdir path = expect_unit "rmdir" (sys (Syscall.Rmdir path))
let unlink path = expect_unit "unlink" (sys (Syscall.Unlink path))

let link ~target path = expect_unit "link" (sys (Syscall.Link { target; path }))

let symlink ~target path =
  expect_unit "symlink" (sys (Syscall.Symlink { target; path }))

let readlink path = expect_str "readlink" (sys (Syscall.Readlink path))

let rename ~src ~dst = expect_unit "rename" (sys (Syscall.Rename { src; dst }))

let readdir path =
  match sys (Syscall.Readdir path) with
  | Ok (Syscall.Names names) -> Ok names
  | Ok _ -> invalid_arg "readdir: unexpected result shape"
  | Error e -> Error e

let chmod ~mode path = expect_unit "chmod" (sys (Syscall.Chmod { path; mode }))
let chown ~owner path = expect_unit "chown" (sys (Syscall.Chown { path; owner }))

let truncate ~len path = expect_unit "truncate" (sys (Syscall.Truncate { path; len }))

let pipe () =
  match sys Syscall.Pipe with
  | Ok (Syscall.Fd_pair { rd; wr }) -> Ok (rd, wr)
  | Ok _ -> invalid_arg "pipe: unexpected result shape"
  | Error e -> Error e

let spawn path ~args = expect_int "spawn" (sys (Syscall.Spawn { path; args }))

let waitpid pid =
  match sys (Syscall.Waitpid pid) with
  | Ok (Syscall.Wait_v { pid; status }) -> Ok (pid, status)
  | Ok _ -> invalid_arg "waitpid: unexpected result shape"
  | Error e -> Error e

let exit code =
  ignore (sys (Syscall.Exit code));
  (* The kernel never resumes an exiting process. *)
  assert false

let kill ~pid ~signal = expect_unit "kill" (sys (Syscall.Kill { pid; signal }))

let getenv name =
  match sys (Syscall.Getenv name) with
  | Ok (Syscall.Str v) -> Some v
  | Ok _ -> invalid_arg "getenv: unexpected result shape"
  | Error _ -> None

let setenv name value =
  check "setenv" (expect_unit "setenv" (sys (Syscall.Setenv { name; value })))

let getacl path = expect_str "getacl" (sys (Syscall.Getacl path))

let setacl ~path ~entry = expect_unit "setacl" (sys (Syscall.Setacl { path; entry }))

let compute ns = check "compute" (expect_unit "compute" (sys (Syscall.Compute ns)))

let compute_us us = compute (Int64.of_float (us *. 1e3))

let block_size = 8192

let read_all fd = Syscall.read_to_end sys ~fd ~chunk:block_size

let write_string fd s =
  match write fd s with
  | Error e -> Error e
  | Ok n -> if n = String.length s then Ok () else Error Errno.ENOSPC

let with_file ?(flags = Fs.rdonly) ?(mode = 0o644) path f =
  match open_file ~flags ~mode path with
  | Error e -> Error e
  | Ok fd ->
    let result = f fd in
    (match close fd with
     | Ok () -> result
     | Error e -> (match result with Ok _ -> Error e | Error _ -> result))

let read_file path = with_file path read_all

let write_file path ~contents =
  with_file ~flags:Fs.wronly_create path (fun fd -> write_string fd contents)
