#include "src/ops/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

namespace pevm::ops {

namespace {

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 413:
      return "Payload Too Large";
    case 500:
      return "Internal Server Error";
    default:
      return "Unknown";
  }
}

// Blocking full-buffer write; the socket carries SO_SNDTIMEO, so a stuck
// scraper times the write out instead of wedging a worker forever.
bool WriteAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

bool SendResponse(int fd, const HttpResponse& response) {
  char header[256];
  int n = std::snprintf(header, sizeof(header),
                        "HTTP/1.1 %d %s\r\n"
                        "Content-Type: %s\r\n"
                        "Content-Length: %zu\r\n"
                        "Connection: close\r\n"
                        "\r\n",
                        response.status, StatusText(response.status),
                        response.content_type.c_str(), response.body.size());
  if (n <= 0 || static_cast<size_t>(n) >= sizeof(header)) {
    return false;
  }
  return WriteAll(fd, header, static_cast<size_t>(n)) &&
         WriteAll(fd, response.body.data(), response.body.size());
}

// Case-insensitive Content-Length scan over the raw header block. The only
// header this server interprets; everything else passes through unread. A
// value above `limit` is rejected as soon as the digits pass it, so a long
// number can never wrap around into a small one.
bool FindContentLength(const std::string& headers, size_t limit, size_t* length) {
  *length = 0;
  size_t pos = 0;
  while (pos < headers.size()) {
    size_t eol = headers.find("\r\n", pos);
    if (eol == std::string::npos) {
      eol = headers.size();
    }
    std::string line = headers.substr(pos, eol - pos);
    size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string key = line.substr(0, colon);
      for (char& c : key) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      if (key == "content-length") {
        size_t value = 0;
        bool any = false;
        for (size_t i = colon + 1; i < line.size(); ++i) {
          char c = line[i];
          if (c == ' ' || c == '\t') {
            continue;
          }
          if (c < '0' || c > '9') {
            return false;
          }
          const size_t digit = static_cast<size_t>(c - '0');
          if (digit > limit || value > (limit - digit) / 10) {
            return false;
          }
          value = value * 10 + digit;
          any = true;
        }
        if (!any) {
          return false;
        }
        *length = value;
        return true;
      }
    }
    pos = eol + 2;
  }
  return true;  // No Content-Length header: zero-length body.
}

// Parses "GET /path?query HTTP/1.1" into the request struct.
bool ParseRequestLine(const std::string& line, HttpRequest* request) {
  size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) {
    return false;
  }
  size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) {
    return false;
  }
  request->method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty() || target[0] != '/') {
    return false;
  }
  size_t qmark = target.find('?');
  if (qmark == std::string::npos) {
    request->path = std::move(target);
  } else {
    request->path = target.substr(0, qmark);
    request->query = target.substr(qmark + 1);
  }
  return line.compare(sp2 + 1, 5, "HTTP/") == 0;
}

}  // namespace

HttpServer::HttpServer(const Options& options) : options_(options) {
  if (options_.threads < 1) {
    options_.threads = 1;
  }
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Route(std::string method, std::string path, Handler handler) {
  routes_[std::move(path)][std::move(method)] = std::move(handler);
}

bool HttpServer::Start(std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) {
      *error = std::string("socket: ") + std::strerror(errno);
    }
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) {
      *error = "bad bind address: " + options_.bind_address;
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    if (error != nullptr) {
      *error = std::string("bind/listen ") + options_.bind_address + ": " +
               std::strerror(errno);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  } else {
    port_ = options_.port;
  }
  connections_ = std::make_unique<BoundedQueue<int>>(64);
  acceptor_ = std::thread(&HttpServer::AcceptLoop, this);
  workers_.reserve(static_cast<size_t>(options_.threads));
  for (int i = 0; i < options_.threads; ++i) {
    workers_.emplace_back(&HttpServer::WorkerLoop, this);
  }
  started_ = true;
  return true;
}

void HttpServer::Stop() {
  if (!started_) {
    return;
  }
  started_ = false;
  // The acceptor polls with a short timeout and rechecks this flag, so no
  // socket-close race is needed to unblock it (portable, TSan-clean).
  stopping_.store(true, std::memory_order_relaxed);
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  // The acceptor closed the queue on exit; workers drain any connection that
  // was already accepted (every accepted scrape gets its answer), then see
  // the closed queue and exit.
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
    if (ready <= 0) {
      continue;  // Timeout or EINTR; recheck the stop flag.
    }
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    timeval timeout{};
    timeout.tv_sec = options_.io_timeout_ms / 1000;
    timeout.tv_usec = (options_.io_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    if (!connections_->Push(fd)) {
      ::close(fd);  // Queue aborted: shutting down.
    }
  }
  connections_->Close();
}

void HttpServer::WorkerLoop() {
  while (std::optional<int> fd = connections_->Pop()) {
    HandleConnection(*fd);
    ::close(*fd);
  }
}

void HttpServer::HandleConnection(int fd) {
  std::string data;
  data.reserve(1024);
  size_t header_end = std::string::npos;
  char chunk[4096];
  // Read until the blank line ending the headers (then as much body as
  // Content-Length asks for), bounded by max_request_bytes and SO_RCVTIMEO.
  while (header_end == std::string::npos) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return;  // Peer closed / timed out before a full request arrived.
    }
    data.append(chunk, static_cast<size_t>(n));
    if (data.size() > options_.max_request_bytes) {
      SendResponse(fd, {413, "text/plain; charset=utf-8", "request too large\n"});
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    header_end = data.find("\r\n\r\n");
  }

  HttpRequest request;
  size_t line_end = data.find("\r\n");
  if (!ParseRequestLine(data.substr(0, line_end), &request)) {
    SendResponse(fd, {400, "text/plain; charset=utf-8", "bad request\n"});
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // The header block sits between the request line and the blank line; it is
  // empty when the blank line follows the request line directly.
  const std::string headers =
      header_end > line_end ? data.substr(line_end + 2, header_end - line_end - 2) : "";
  size_t content_length = 0;
  if (!FindContentLength(headers, options_.max_request_bytes, &content_length)) {
    SendResponse(fd, {400, "text/plain; charset=utf-8", "bad content-length\n"});
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  size_t body_start = header_end + 4;
  while (data.size() - body_start < content_length) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    data.append(chunk, static_cast<size_t>(n));
    if (data.size() > options_.max_request_bytes) {
      SendResponse(fd, {413, "text/plain; charset=utf-8", "request too large\n"});
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  request.body = data.substr(body_start, content_length);

  auto path_it = routes_.find(request.path);
  if (path_it == routes_.end()) {
    SendResponse(fd, {404, "text/plain; charset=utf-8", "not found\n"});
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto method_it = path_it->second.find(request.method);
  if (method_it == path_it->second.end()) {
    SendResponse(fd, {405, "text/plain; charset=utf-8", "method not allowed\n"});
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  HttpResponse response = method_it->second(request);
  if (SendResponse(fd, response) && response.status < 400) {
    served_.fetch_add(1, std::memory_order_relaxed);
  } else if (response.status >= 400) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace pevm::ops
