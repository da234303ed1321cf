//! The tag that ends a line names the `clippy::disallowed_*` lints that must fire on it.

pub fn wall_clock() {
    let _ = std::time::Instant::now(); //~ methods types
    let _ = std::time::SystemTime::now(); //~ methods types
    std::thread::sleep(std::time::Duration::ZERO); //~ methods
}

pub fn file_io() {
    let _ = std::fs::read("x"); //~ methods
    let _ = std::fs::read_to_string("x"); //~ methods
    let _ = std::fs::write("x", ""); //~ methods
    let _ = std::fs::create_dir("x"); //~ methods
    let _ = std::fs::create_dir_all("x"); //~ methods
    let _ = std::fs::read_dir("x"); //~ methods
    let _ = std::fs::remove_file("x"); //~ methods
}

pub use std::fs::File as F; //~ types
pub use std::fs::OpenOptions as O; //~ types
pub use std::net::TcpListener as L; //~ types
pub use std::net::TcpStream as S; //~ types
pub use std::net::UdpSocket as U; //~ types
pub use std::process::Command as C; //~ types
